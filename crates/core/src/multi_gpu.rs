//! A slab-sharded 3-D FFT across several simulated GPUs.
//!
//! The paper's §4.4 closes by arguing that once a single card's bandwidth is
//! saturated, the next step is more cards. This module shards the volume by
//! Z across `n_gpus` simulated devices:
//!
//! 1. **Local XY pass** — each card uploads its `nz/n_gpus` planes over its
//!    own PCIe link and runs the batched 2-D transform ([`Fft2dGpu`]) on
//!    them.
//! 2. **All-to-all exchange** — an explicit pack kernel rearranges each
//!    card's slab into per-destination chunks (repartitioning from Z-slabs
//!    to Y-slabs); chunks bounce through host memory as a modelled
//!    device-to-host + host-to-device transfer pair, chopped into pieces so
//!    the destination's upload pipelines behind the source's download; an
//!    unpack kernel lands them in Z-major column order.
//! 3. **Local Z pass** — each card runs length-`nz` FFTs over its
//!    `ny/n_gpus · nx` columns ([`Fft1dBatchGpu`]) and downloads its share
//!    of the spectrum.
//!
//! Each card owns an independent simulated clock, so cards genuinely run in
//! parallel; the only cross-card serialisation is the exchange, where a
//! destination's H2D cannot start before the source's D2H of the same piece
//! has landed in host memory. The report's `wall_s` is the makespan over
//! all cards.

use crate::batch::{Fft1dBatchGpu, Fft2dGpu};
use crate::cufft_like::classify_stride;
use crate::kernel256::batched_config;
use crate::plan::{Algorithm, FftError};
use crate::wisdom::plan_arc;
use fft_math::flops::nominal_flops_3d;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::pcie::{transfer_time, Dir as PcieDir};
use gpu_sim::timing::estimate_pass;
use gpu_sim::{BufferId, CheckReport, DeviceSpec, Gpu, KernelReport, LaunchConfig};

/// Pieces each exchanged chunk is chopped into, so a destination's H2D can
/// start as soon as the first piece has crossed to the host instead of
/// waiting for the whole chunk.
const EXCHANGE_PIECES: usize = 8;

/// Timing summary of one multi-GPU run. Leg columns sum the per-card
/// durations; `wall_s` is the parallel makespan.
#[derive(Clone, Debug, Default)]
pub struct MultiGpuReport {
    /// Cards the run used.
    pub n_gpus: usize,
    /// Host-to-device slab upload seconds (summed over cards).
    pub upload_s: f64,
    /// Local 2-D XY transform seconds.
    pub xy_fft_s: f64,
    /// Pack-kernel seconds (slab → per-destination chunks).
    pub pack_s: f64,
    /// Exchange device-to-host seconds.
    pub exchange_d2h_s: f64,
    /// Exchange host-to-device seconds.
    pub exchange_h2d_s: f64,
    /// Unpack-kernel seconds (chunks → Z-major columns).
    pub unpack_s: f64,
    /// Local Z transform seconds.
    pub z_fft_s: f64,
    /// Device-to-host result download seconds.
    pub download_s: f64,
    /// Bytes crossing PCIe during the exchange (each way, all cards).
    pub bytes_exchanged: u64,
    /// Nominal FLOPs of the whole transform.
    pub nominal_flops: u64,
    /// End-to-end simulated makespan over all cards, seconds.
    pub wall_s: f64,
}

impl MultiGpuReport {
    /// Sum of every leg over every card — the single-card-equivalent time.
    pub fn total_s(&self) -> f64 {
        self.upload_s
            + self.xy_fft_s
            + self.pack_s
            + self.exchange_d2h_s
            + self.exchange_h2d_s
            + self.unpack_s
            + self.z_fft_s
            + self.download_s
    }

    /// Nominal GFLOPS at the parallel makespan.
    pub fn gflops(&self) -> f64 {
        self.nominal_flops as f64 / self.wall_s / 1e9
    }
}

struct Card {
    gpu: Gpu,
    xy: Fft2dGpu,
    zf: Fft1dBatchGpu,
    /// Slab in natural plane order (XY pass runs here in place).
    v: BufferId,
    /// 2-D scratch, then pack/unpack staging (chunk-major).
    w: BufferId,
    /// Z-major columns for the Z pass.
    zmaj: BufferId,
}

/// A 3-D FFT plan sharded across `n_gpus` simulated cards (see the module
/// docs for the pipeline).
pub struct MultiGpuFft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    cards: Vec<Card>,
}

fn validate(n_gpus: usize, nx: usize, ny: usize, nz: usize) -> Result<(), FftError> {
    // Each card runs the six-step's passes: fine-kernel rows and transposes.
    Algorithm::SixStep.check_shape(nx, ny, nz)?;
    if n_gpus == 0 || !n_gpus.is_power_of_two() {
        return Err(FftError::BadShardCount {
            n_gpus,
            reason: "card count must be a power of two",
        });
    }
    if nz / n_gpus == 0 || ny / n_gpus == 0 {
        return Err(FftError::BadShardCount {
            n_gpus,
            reason: "need at least one Z plane and one Y row per card",
        });
    }
    Ok(())
}

impl MultiGpuFft3d {
    /// Plans the sharded transform and allocates three slab-sized buffers on
    /// each of `n_gpus` fresh simulated cards of the given model.
    ///
    /// # Errors
    /// [`FftError::UnsupportedSize`] for dims outside the six-step envelope,
    /// [`FftError::BadShardCount`] when `n_gpus` can't shard the volume, and
    /// [`FftError::Alloc`] when a card can't hold its share.
    pub fn new(
        spec: &DeviceSpec,
        n_gpus: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Result<Self, FftError> {
        validate(n_gpus, nx, ny, nz)?;
        let z_loc = nz / n_gpus;
        let slab_elems = nx * ny * z_loc;
        let mut cards = Vec::with_capacity(n_gpus);
        for _ in 0..n_gpus {
            let mut gpu = Gpu::new(*spec);
            let xy = Fft2dGpu::new(&mut gpu, nx, ny);
            let zf = Fft1dBatchGpu::new(&mut gpu, nz)?;
            let v = gpu.mem_mut().alloc(slab_elems)?;
            let w = gpu.mem_mut().alloc(slab_elems)?;
            let zmaj = gpu.mem_mut().alloc(slab_elems)?;
            cards.push(Card {
                gpu,
                xy,
                zf,
                v,
                w,
                zmaj,
            });
        }
        Ok(MultiGpuFft3d { nx, ny, nz, cards })
    }

    /// Cards in the plan.
    pub fn n_gpus(&self) -> usize {
        self.cards.len()
    }

    /// Volume in elements.
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Borrow of card `i`'s simulated GPU (trace installation, inspection).
    pub fn gpu_mut(&mut self, i: usize) -> &mut Gpu {
        &mut self.cards[i].gpu
    }

    /// Turns on the validation layer on every card (see
    /// [`Gpu::check_enable`]). Idempotent; collect findings with
    /// [`MultiGpuFft3d::check_report`].
    pub fn check_enable(&mut self) {
        for c in &mut self.cards {
            c.gpu.check_enable();
        }
    }

    /// Diagnostics merged across every card, or `None` when
    /// [`MultiGpuFft3d::check_enable`] was never called. Per-card reports
    /// concatenate; `truncated` is sticky if any card overflowed.
    pub fn check_report(&self) -> Option<CheckReport> {
        let mut merged: Option<CheckReport> = None;
        for c in &self.cards {
            if let Some(rep) = c.gpu.check_report() {
                merged.get_or_insert_with(CheckReport::default).merge(rep);
            }
        }
        merged
    }

    /// Transforms a natural-order host volume, returning the natural-order
    /// result and the timing report. Inverse transforms are unnormalised.
    ///
    /// # Errors
    /// [`FftError::VolumeMismatch`] when `host.len()` isn't the planned
    /// volume.
    pub fn transform(
        &mut self,
        host: &[Complex32],
        dir: Direction,
    ) -> Result<(Vec<Complex32>, MultiGpuReport), FftError> {
        if host.len() != self.volume() {
            return Err(FftError::VolumeMismatch {
                expected: self.volume(),
                got: host.len(),
            });
        }
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let g_count = self.cards.len();
        let plane = nx * ny;
        let z_loc = nz / g_count;
        let y_loc = ny / g_count;
        let slab_elems = plane * z_loc;
        let slab_bytes = slab_elems as u64 * 8;
        let chunk_elems = nx * y_loc * z_loc;
        let chunk_bytes = chunk_elems as u64 * 8;

        let mut rep = MultiGpuReport {
            n_gpus: g_count,
            nominal_flops: nominal_flops_3d(nx, ny, nz),
            bytes_exchanged: (g_count * (g_count - 1)) as u64 * chunk_bytes,
            ..Default::default()
        };
        let t0 = self
            .cards
            .iter()
            .map(|c| c.gpu.clock_s())
            .fold(f64::INFINITY, f64::min);

        // ---- Phase 1: upload own slab, XY transform, pack ----
        for (g, card) in self.cards.iter_mut().enumerate() {
            let slab = &host[g * slab_elems..(g + 1) * slab_elems];
            let label = format!("mgpu_h2d_card{g}");
            rep.upload_s += card
                .gpu
                .pcie_transfer(PcieDir::H2D, slab_bytes, z_loc, &label)
                .time_s;
            card.gpu.mem_mut().upload(card.v, 0, slab);

            let span = format!("mgpu_card{g}_xy");
            card.gpu.span_begin(&span);
            let run = card.xy.execute(&mut card.gpu, card.v, card.w, z_loc, dir);
            rep.xy_fft_s += run.total_time_s();
            card.gpu.span_end(&span);

            rep.pack_s += run_pack(&mut card.gpu, card.v, card.w, nx, y_loc, z_loc, g_count)
                .timing
                .time_s;
        }

        // ---- Phase 2: all-to-all exchange through host staging ----
        // Each chunk crosses in EXCHANGE_PIECES pieces so the destination's
        // H2D pipelines one piece behind the source's D2H.
        let pieces = EXCHANGE_PIECES.min(chunk_elems).max(1);
        let piece_bytes = chunk_bytes.div_ceil(pieces as u64);
        let mut staging = vec![vec![Complex32::ZERO; chunk_elems]; g_count * g_count];
        let mut piece_done = vec![vec![0.0f64; pieces]; g_count * g_count];
        for (s, card) in self.cards.iter_mut().enumerate() {
            for d in 0..g_count {
                if d == s {
                    continue;
                }
                card.gpu
                    .mem()
                    .download(card.w, d * chunk_elems, &mut staging[s * g_count + d]);
                for (p, slot) in piece_done[s * g_count + d].iter_mut().enumerate() {
                    let label = format!("mgpu_d2h_{s}to{d}_p{p}");
                    let (r, done) =
                        card.gpu
                            .pcie_transfer_async(PcieDir::D2H, piece_bytes, 1, &label);
                    rep.exchange_d2h_s += r.time_s;
                    *slot = done;
                }
            }
        }
        for (d, card) in self.cards.iter_mut().enumerate() {
            for s in 0..g_count {
                if s == d {
                    continue;
                }
                for (p, &done) in piece_done[s * g_count + d].iter().enumerate() {
                    // The piece can't leave host memory before the source's
                    // download of it completed — the cross-card dependency.
                    card.gpu.wait_until(done);
                    let label = format!("mgpu_h2d_{s}to{d}_p{p}");
                    let (r, _) = card
                        .gpu
                        .pcie_transfer_async(PcieDir::H2D, piece_bytes, 1, &label);
                    rep.exchange_h2d_s += r.time_s;
                }
                card.gpu.pcie_sync();
                card.gpu
                    .mem_mut()
                    .upload(card.w, s * chunk_elems, &staging[s * g_count + d]);
            }
        }

        // ---- Phase 3: unpack, Z transform, download ----
        let mut out = vec![Complex32::ZERO; host.len()];
        let mut slab_out = vec![Complex32::ZERO; slab_elems];
        for (g, card) in self.cards.iter_mut().enumerate() {
            rep.unpack_s += run_unpack(&mut card.gpu, card.w, card.zmaj, nx, y_loc, z_loc, g_count)
                .timing
                .time_s;

            let span = format!("mgpu_card{g}_z");
            card.gpu.span_begin(&span);
            rep.z_fft_s += card
                .zf
                .execute(&mut card.gpu, card.zmaj, card.zmaj, nx * y_loc, dir)
                .timing
                .time_s;
            card.gpu.span_end(&span);

            let label = format!("mgpu_d2h_card{g}");
            rep.download_s += card
                .gpu
                .pcie_transfer(PcieDir::D2H, slab_bytes, z_loc, &label)
                .time_s;
            card.gpu.mem().download(card.zmaj, 0, &mut slab_out);
            // Scatter the card's Y-slab of full-Z columns back to natural
            // order: out[x + nx*(y + ny*z)] with y = g*y_loc + y_l.
            for y_l in 0..y_loc {
                let y = g * y_loc + y_l;
                for x in 0..nx {
                    let col = &slab_out[(y_l * nx + x) * nz..(y_l * nx + x + 1) * nz];
                    for (z, val) in col.iter().enumerate() {
                        out[x + nx * (y + ny * z)] = *val;
                    }
                }
            }
        }

        rep.wall_s = self
            .cards
            .iter()
            .map(|c| c.gpu.clock_s())
            .fold(0.0, f64::max)
            - t0;
        Ok((out, rep))
    }

    /// Analytic estimate of a sharded run (any size, no functional work):
    /// per-card leg times from the same roofline the kernels use, exchange
    /// modelled with the pieced D2H→H2D pipeline, wall-clock as one card's
    /// serial pipeline (cards run in parallel).
    ///
    /// # Errors
    /// Same validation as [`MultiGpuFft3d::new`], minus allocation.
    pub fn estimate(
        spec: &DeviceSpec,
        n_gpus: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Result<MultiGpuReport, FftError> {
        validate(n_gpus, nx, ny, nz)?;
        let z_loc = nz / n_gpus;
        let y_loc = ny / n_gpus;
        let plane = nx * ny;
        let slab_elems = (plane * z_loc) as u64;
        let slab_bytes = slab_elems * 8;
        let chunk_bytes = (nx * y_loc * z_loc) as u64 * 8;

        let xy: f64 = Fft2dGpu::launch_list(spec, [&plan_arc(nx), &plan_arc(ny)], z_loc)
            .iter()
            .map(|l| estimate_pass(spec, &l.cfg, l.elems).time_s)
            .sum();
        let z_cfg = batched_config(spec, &plan_arc(nz), nx * y_loc, false, "fft1d_batch");
        let zf = estimate_pass(spec, &z_cfg, slab_elems).time_s;
        let rearrange = || estimate_pass(spec, &pack_cfg(spec, plane), slab_elems).time_s;
        let upload = transfer_time(spec.pcie, PcieDir::H2D, slab_bytes, z_loc).time_s;
        let download = transfer_time(spec.pcie, PcieDir::D2H, slab_bytes, z_loc).time_s;

        let (pack, unpack, d2h, h2d, exchange_wall) = if n_gpus > 1 {
            let out_chunks = (n_gpus - 1) as u64;
            let d2h = transfer_time(spec.pcie, PcieDir::D2H, out_chunks * chunk_bytes, 1).time_s;
            let h2d = transfer_time(spec.pcie, PcieDir::H2D, out_chunks * chunk_bytes, 1).time_s;
            // Pieced pipeline: H2D trails D2H by one piece.
            let wall = d2h.max(h2d) + d2h / (out_chunks as f64 * EXCHANGE_PIECES as f64);
            (rearrange(), rearrange(), d2h, h2d, wall)
        } else {
            (0.0, 0.0, 0.0, 0.0, 0.0)
        };

        let wall = upload + xy + pack + exchange_wall + unpack + zf + download;
        Ok(MultiGpuReport {
            n_gpus,
            upload_s: n_gpus as f64 * upload,
            xy_fft_s: n_gpus as f64 * xy,
            pack_s: n_gpus as f64 * pack,
            exchange_d2h_s: n_gpus as f64 * d2h,
            exchange_h2d_s: n_gpus as f64 * h2d,
            unpack_s: n_gpus as f64 * unpack,
            z_fft_s: n_gpus as f64 * zf,
            download_s: n_gpus as f64 * download,
            bytes_exchanged: (n_gpus * (n_gpus - 1)) as u64 * chunk_bytes,
            nominal_flops: nominal_flops_3d(nx, ny, nz),
            wall_s: wall,
        })
    }
}

/// The pack kernel's launch on `spec` for slabs of `plane`-element planes.
fn pack_cfg(spec: &DeviceSpec, plane: usize) -> LaunchConfig {
    let mut cfg = LaunchConfig::copy("mgpu_pack", 0, 128);
    cfg.grid_blocks = spec.fill_grid(&cfg.resources);
    // Gathering Z-columns out of plane-major storage strides by a whole
    // plane between consecutive reads.
    cfg.read_pattern = classify_stride(plane * 8);
    cfg
}

/// Pack: rearrange the XY-transformed slab `v` (plane-major, natural order)
/// into `w` as per-destination chunks, `w[d·chunk + (y_l·nx + x)·z_loc + zl]`
/// — the explicit all-to-all rearrangement kernel.
fn run_pack(
    gpu: &mut Gpu,
    v: BufferId,
    w: BufferId,
    nx: usize,
    y_loc: usize,
    z_loc: usize,
    n_gpus: usize,
) -> KernelReport {
    let plane = nx * y_loc * n_gpus;
    let slab = plane * z_loc;
    let chunk = nx * y_loc * z_loc;
    let cfg = pack_cfg(gpu.spec(), plane);
    gpu.launch_items(&cfg, slab, |t, i| {
        let d = i / chunk;
        let r = i % chunk;
        let col = r / z_loc; // y_l*nx + x
        let zl = r % z_loc;
        let y = d * y_loc + col / nx;
        let x = col % nx;
        let val = t.ld(v, zl * plane + y * nx + x);
        t.st(w, i, val);
    })
}

/// The unpack kernel's launch on `spec` for `nz`-point Z columns.
fn unpack_cfg(spec: &DeviceSpec, nz: usize) -> LaunchConfig {
    let mut cfg = LaunchConfig::copy("mgpu_unpack", 0, 128);
    cfg.grid_blocks = spec.fill_grid(&cfg.resources);
    cfg.write_pattern = classify_stride(nz * 8);
    cfg
}

/// Unpack: scatter received chunks (`w[s·chunk + col·z_loc + zl]`) into
/// Z-major columns `zmaj[col·nz + s·z_loc + zl]` ready for the Z pass.
fn run_unpack(
    gpu: &mut Gpu,
    w: BufferId,
    zmaj: BufferId,
    nx: usize,
    y_loc: usize,
    z_loc: usize,
    n_gpus: usize,
) -> KernelReport {
    let nz = z_loc * n_gpus;
    let chunk = nx * y_loc * z_loc;
    let slab = chunk * n_gpus;
    let cfg = unpack_cfg(gpu.spec(), nz);
    gpu.launch_items(&cfg, slab, |t, i| {
        let s = i / chunk;
        let r = i % chunk;
        let col = r / z_loc;
        let zl = r % z_loc;
        let val = t.ld(w, i);
        t.st(zmaj, col * nz + s * z_loc + zl, val);
    })
}

/// One-line summary of a multi-GPU run.
pub fn summarize(rep: &MultiGpuReport, dims: (usize, usize, usize)) -> String {
    format!(
        "multi-gpu {}x{}x{} on {} cards: wall {:.4} s ({:.1} GFLOPS) | up {:.4} xy {:.4} pack {:.4} xchg {:.4}+{:.4} unpack {:.4} z {:.4} down {:.4}",
        dims.0, dims.1, dims.2, rep.n_gpus,
        rep.wall_s, rep.gflops(),
        rep.upload_s, rep.xy_fft_s, rep.pack_s,
        rep.exchange_d2h_s, rep.exchange_h2d_s,
        rep.unpack_s, rep.z_fft_s, rep.download_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::dft::dft3d_oracle;
    use fft_math::error::rel_l2_error;
    use fft_math::rng::SplitMix64;

    fn volume(n: usize, seed: u64) -> Vec<Complex32> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn two_cards_match_the_oracle() {
        let n = 16usize;
        let host = volume(n * n * n, 900);
        let mut plan = MultiGpuFft3d::new(&DeviceSpec::gt8800(), 2, n, n, n).unwrap();
        let (got, rep) = plan.transform(&host, Direction::Forward).unwrap();
        let want = dft3d_oracle(&host, n, n, n, Direction::Forward);
        let err = rel_l2_error(&got, &want);
        assert!(err < 1e-4, "rel err {err}");
        assert_eq!(rep.n_gpus, 2);
        assert!(rep.wall_s > 0.0);
        // Cards overlap: the makespan beats the serial sum of all legs.
        assert!(rep.wall_s < rep.total_s());
        assert_eq!(rep.bytes_exchanged, (n * n * n / 2) as u64 * 8);
    }

    #[test]
    fn four_cards_match_the_oracle() {
        let (nx, ny, nz) = (16usize, 32, 32);
        let host = volume(nx * ny * nz, 901);
        let mut plan = MultiGpuFft3d::new(&DeviceSpec::gts8800(), 4, nx, ny, nz).unwrap();
        let (got, _) = plan.transform(&host, Direction::Forward).unwrap();
        let want = dft3d_oracle(&host, nx, ny, nz, Direction::Forward);
        let err = rel_l2_error(&got, &want);
        assert!(err < 1e-4, "rel err {err}");
    }

    #[test]
    fn shard_validation_is_typed() {
        let spec = DeviceSpec::gt8800();
        assert!(matches!(
            MultiGpuFft3d::new(&spec, 3, 32, 32, 32),
            Err(FftError::BadShardCount { n_gpus: 3, .. })
        ));
        assert!(matches!(
            MultiGpuFft3d::new(&spec, 0, 32, 32, 32),
            Err(FftError::BadShardCount { .. })
        ));
        assert!(matches!(
            MultiGpuFft3d::new(&spec, 2, 8, 32, 32),
            Err(FftError::UnsupportedSize {
                axis: 'x',
                n: 8,
                ..
            })
        ));
        let mut plan = MultiGpuFft3d::new(&spec, 2, 16, 16, 16).unwrap();
        assert!(matches!(
            plan.transform(&[Complex32::ZERO; 3], Direction::Forward),
            Err(FftError::VolumeMismatch { .. })
        ));
    }

    #[test]
    fn two_gts_beat_one_at_256_cubed() {
        // The acceptance bar: ≥ 1.5× scaling at 256³ on two 8800 GTs, from
        // the analytic model (a functional 256³ run is minutes of test time).
        let spec = DeviceSpec::gt8800();
        let one = MultiGpuFft3d::estimate(&spec, 1, 256, 256, 256).unwrap();
        let two = MultiGpuFft3d::estimate(&spec, 2, 256, 256, 256).unwrap();
        let speedup = one.wall_s / two.wall_s;
        assert!(
            speedup >= 1.5,
            "2-card speedup {speedup:.2} (one {:.4}s, two {:.4}s)",
            one.wall_s,
            two.wall_s
        );
        let four = MultiGpuFft3d::estimate(&spec, 4, 256, 256, 256).unwrap();
        assert!(four.wall_s < two.wall_s, "4 cards beat 2");
    }

    #[test]
    fn estimate_matches_functional_wall_at_small_size() {
        // The analytic wall and the functional schedule agree to first
        // order (same kernels, same transfer model, same pipeline shape).
        let n = 32usize;
        let spec = DeviceSpec::gt8800();
        let host = volume(n * n * n, 902);
        let mut plan = MultiGpuFft3d::new(&spec, 2, n, n, n).unwrap();
        let (_, run) = plan.transform(&host, Direction::Forward).unwrap();
        let est = MultiGpuFft3d::estimate(&spec, 2, n, n, n).unwrap();
        let ratio = run.wall_s / est.wall_s;
        assert!(
            (0.5..2.0).contains(&ratio),
            "functional {} vs estimate {}",
            run.wall_s,
            est.wall_s
        );
    }
}
