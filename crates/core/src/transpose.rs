//! Tiled 3-D rotation (transpose) kernels for the conventional six-step
//! algorithm.
//!
//! The six-step baseline rotates the volume `(x,y,z) → (z,x,y)` between its
//! 1-D FFT phases. A naive per-element kernel would leave one side
//! uncoalesced; the standard remedy — and what CUFFT-era transpose kernels
//! did — is a 16 x 16 tile staged through shared memory with one pad word
//! per row, so both the gather and the scatter are half-warp sequential.
//! Even so, the scatter sprays 16-row tiles across the whole output volume:
//! the DRAM model prices it as an N-stream copy, which is exactly how the
//! paper describes the measured transpose bandwidth ("nearly equal to the
//! bandwidth of copying 256 streams", §4.1 / Table 6).

use fft_math::layout::AccessPattern;
use fft_math::Complex32;
use gpu_sim::{
    BufferId, DeviceSpec, Gpu, KernelClass, KernelReport, KernelResources, LaunchConfig,
};

/// Tile edge (matches the half-warp, as real transpose kernels do).
pub const TILE: usize = 16;

/// The launch of a tiled transpose on `spec` over the two `tiled` axes,
/// whose scatter is priced as a `streams`-stream copy.
fn tiled_config(
    spec: &DeviceSpec,
    tiled: [usize; 2],
    streams: usize,
    name: &'static str,
) -> LaunchConfig {
    assert!(
        tiled.iter().all(|n| n.is_multiple_of(TILE)),
        "transpose dims must be multiples of the {TILE}-wide tile"
    );
    let resources = KernelResources {
        threads_per_block: 64,
        regs_per_thread: 12,
        // Separate padded re and im regions (§3.2's trick): interleaving
        // them would put lanes at stride 2 and cost a 2-way bank conflict.
        shared_bytes_per_block: 2 * TILE * (TILE + 1) * 4,
    };
    LaunchConfig {
        name,
        grid_blocks: spec.fill_grid(&resources),
        resources,
        class: KernelClass::StreamCopy,
        read_pattern: AccessPattern::X,
        write_pattern: AccessPattern::D,
        in_place: false,
        nominal_flops: 0,
        streams,
    }
}

/// The launch of the rotation `(x, y, z) → (z, x, y)` of an
/// `nx x ny x nz` volume on `spec` ([`run_rotate_zxy`]): the one
/// configuration the functional rotation and the analytic estimator both
/// use.
pub fn rotate_config(
    spec: &DeviceSpec,
    nx: usize,
    ny: usize,
    nz: usize,
    name: &'static str,
) -> LaunchConfig {
    tiled_config(spec, [nx, nz], nz.max(ny), name)
}

/// The launch of the per-plane transpose of `nx x ny` planes on `spec`
/// ([`run_transpose_2d`]).
pub fn transpose_2d_config(
    spec: &DeviceSpec,
    nx: usize,
    ny: usize,
    name: &'static str,
) -> LaunchConfig {
    tiled_config(spec, [nx, ny], ny.max(nx), name)
}

/// The rotation `(x, y, z) → (z, x, y)` of an `nx x ny x nz` volume, as
/// source and destination indices.
#[derive(Clone, Copy)]
struct Rotation {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Rotation {
    #[inline]
    fn src(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }

    #[inline]
    fn dst(&self, x: usize, y: usize, z: usize) -> usize {
        z + self.nz * (x + self.nx * y)
    }

    /// Tile `tile`'s `(x0, y, z0)` corner: X tiles fastest, then Z tiles,
    /// then Y planes.
    #[inline]
    fn tile(&self, tile: usize) -> (usize, usize, usize) {
        let tiles_x = self.nx / TILE;
        let tiles_z = self.nz / TILE;
        let rest = tile / tiles_x;
        (
            (tile % tiles_x) * TILE,
            rest / tiles_z,
            (rest % tiles_z) * TILE,
        )
    }

    fn tiles(&self) -> usize {
        (self.nx / TILE) * (self.nz / TILE) * self.ny
    }
}

/// Rotates `(x, y, z) → (z, x, y)` as `cfg`, its [`rotate_config`]:
/// `dst[z + nz*(x + nx*y)] = src[x + nx*(y + ny*z)]`. 64 threads move a
/// 16x16 tile in four 16-lane sweeps; the tile lives in shared memory with a
/// pad word per row to kill bank conflicts.
///
/// `nx` and `nz` must be multiples of [`TILE`].
pub fn run_rotate_zxy(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    src: BufferId,
    dst: BufferId,
    nx: usize,
    ny: usize,
    nz: usize,
) -> KernelReport {
    let rot = Rotation { nx, ny, nz };
    let rows_per_thread_pass = TILE / (64 / TILE); // 4 rows per sweep of 64 threads
    gpu.launch_coop_items(cfg, rot.tiles(), |blk, tile| {
        let (x0, y, z0) = rot.tile(tile);

        // Gather: lane i reads x0+i (coalesced) for 4 z-rows per sweep.
        blk.threads(|t, ctx| {
            let i = t % TILE;
            let j0 = (t / TILE) * rows_per_thread_pass;
            for dj in 0..rows_per_thread_pass {
                let j = j0 + dj;
                let v = ctx.ld(src, rot.src(x0 + i, y, z0 + j));
                let w = j * (TILE + 1) + i;
                ctx.sh_write(w, v.re);
                ctx.sh_write(TILE * (TILE + 1) + w, v.im);
            }
        });
        blk.sync();
        // Scatter: lane i writes z0+i (coalesced) for 4 x-rows per sweep.
        blk.threads(|t, ctx| {
            let i = t % TILE;
            let j0 = (t / TILE) * rows_per_thread_pass;
            for dj in 0..rows_per_thread_pass {
                let j = j0 + dj; // x offset within tile
                let w = i * (TILE + 1) + j;
                let v = Complex32::new(ctx.sh_read(w), ctx.sh_read(TILE * (TILE + 1) + w));
                ctx.st(dst, rot.dst(x0 + j, y, z0 + i), v);
            }
        });
        blk.sync();
    })
}

/// [`run_rotate_zxy`] through [`Gpu::launch_replay`]: the first rotation of
/// a shape is simulated, and every later one permutes the volume in plain
/// loops and reuses its report. Outputs and report are bit-identical to
/// [`run_rotate_zxy`]'s.
pub fn replay_rotate_zxy(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    src: BufferId,
    dst: BufferId,
    nx: usize,
    ny: usize,
    nz: usize,
) -> KernelReport {
    let rot = Rotation { nx, ny, nz };
    gpu.launch_replay(
        cfg,
        &[src, dst],
        &[nx as u64, ny as u64, nz as u64],
        |g| run_rotate_zxy(g, cfg, src, dst, nx, ny, nz),
        |mem, _| {
            let (src, dst) = mem.src_dst(src, dst, nx * ny * nz);
            for tile in 0..rot.tiles() {
                let (x0, y, z0) = rot.tile(tile);
                for z in z0..z0 + TILE {
                    for x in x0..x0 + TILE {
                        dst[rot.dst(x, y, z)] = src.get(rot.src(x, y, z));
                    }
                }
            }
        },
    )
}

/// Per-plane 2-D transpose of a batch of planes as `cfg`, its
/// [`transpose_2d_config`]:
/// `dst[y + ny*(x + nx*p)] = src[x + nx*(y + ny*p)]` for `p in 0..planes`.
///
/// Same 16x16 padded-tile structure as [`run_rotate_zxy`]; used by the 2-D
/// plan API.
pub fn run_transpose_2d(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    src: BufferId,
    dst: BufferId,
    nx: usize,
    ny: usize,
    planes: usize,
) -> KernelReport {
    let tiles_x = nx / TILE;
    let tiles_y = ny / TILE;
    let tiles_total = tiles_x * tiles_y * planes;
    let rows_per_thread_pass = TILE / (64 / TILE);

    gpu.launch_coop_items(cfg, tiles_total, |blk, tile| {
        let tx = tile % tiles_x;
        let rest = tile / tiles_x;
        let ty = rest % tiles_y;
        let p = rest / tiles_y;
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        let in_base = nx * ny * p;
        blk.threads(|t, ctx| {
            let i = t % TILE;
            let j0 = (t / TILE) * rows_per_thread_pass;
            for dj in 0..rows_per_thread_pass {
                let j = j0 + dj;
                let v = ctx.ld(src, in_base + (x0 + i) + nx * (y0 + j));
                let w = j * (TILE + 1) + i;
                ctx.sh_write(w, v.re);
                ctx.sh_write(TILE * (TILE + 1) + w, v.im);
            }
        });
        blk.sync();
        blk.threads(|t, ctx| {
            let i = t % TILE;
            let j0 = (t / TILE) * rows_per_thread_pass;
            for dj in 0..rows_per_thread_pass {
                let j = j0 + dj;
                let w = i * (TILE + 1) + j;
                let v = Complex32::new(ctx.sh_read(w), ctx.sh_read(TILE * (TILE + 1) + w));
                ctx.st(dst, in_base + (y0 + i) + ny * (x0 + j), v);
            }
        });
        blk.sync();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::c32;
    use gpu_sim::DeviceSpec;

    /// Runs the simulated rotation of an `nx x ny x nz` volume.
    fn rotate(
        g: &mut Gpu,
        src: BufferId,
        dst: BufferId,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> KernelReport {
        let cfg = rotate_config(g.spec(), nx, ny, nz, "t");
        run_rotate_zxy(g, &cfg, src, dst, nx, ny, nz)
    }

    #[test]
    fn rotation_is_correct() {
        let (nx, ny, nz) = (16usize, 4, 32);
        let mut g = Gpu::new(DeviceSpec::gt8800());
        let src = g.mem_mut().alloc(nx * ny * nz).unwrap();
        let dst = g.mem_mut().alloc(nx * ny * nz).unwrap();
        let host: Vec<Complex32> = (0..nx * ny * nz)
            .map(|i| c32(i as f32, -(i as f32)))
            .collect();
        g.mem_mut().upload(src, 0, &host);
        rotate(&mut g, src, dst, nx, ny, nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let want = host[x + nx * (y + ny * z)];
                    let got = g.mem().read(dst, z + nz * (x + nx * y));
                    assert_eq!(got, want, "({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn both_sides_coalesce_and_no_conflicts() {
        let mut g = Gpu::new(DeviceSpec::gts8800());
        let n = 16 * 16 * 16;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        let rep = rotate(&mut g, src, dst, 16, 16, 16);
        assert!(rep.stats.coalesced_fraction() > 0.999, "{:?}", rep.stats);
        assert_eq!(rep.stats.shared_races, 0);
        assert_eq!(rep.stats.shared_conflict_rate(), 0.0);
    }

    #[test]
    fn transpose_prices_as_stream_copy() {
        // Table 6: the 256³ transpose runs at roughly the 256-stream copy
        // rate (~20.7 GB/s on the GT).
        let mut g = Gpu::new(DeviceSpec::gt8800());
        let n = 32 * 16 * 256;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        let rep = rotate(&mut g, src, dst, 32, 16, 256);
        assert!(
            (rep.timing.modeled_bandwidth_gbs - 20.5).abs() < 1.0,
            "{:?}",
            rep.timing
        );
    }

    #[test]
    fn transpose_2d_is_correct_per_plane() {
        let (nx, ny, planes) = (16usize, 32, 3);
        let mut g = Gpu::new(DeviceSpec::gt8800());
        let src = g.mem_mut().alloc(nx * ny * planes).unwrap();
        let dst = g.mem_mut().alloc(nx * ny * planes).unwrap();
        let host: Vec<Complex32> = (0..nx * ny * planes).map(|i| c32(i as f32, 1.0)).collect();
        g.mem_mut().upload(src, 0, &host);
        let cfg = transpose_2d_config(g.spec(), nx, ny, "t2d");
        let rep = run_transpose_2d(&mut g, &cfg, src, dst, nx, ny, planes);
        assert!(rep.stats.coalesced_fraction() > 0.999);
        assert_eq!(rep.stats.shared_races, 0);
        for p in 0..planes {
            for y in 0..ny {
                for x in 0..nx {
                    let want = host[x + nx * (y + ny * p)];
                    let got = g.mem().read(dst, y + ny * (x + nx * p));
                    assert_eq!(got, want, "({x},{y},{p})");
                }
            }
        }
    }

    #[test]
    fn triple_rotation_is_identity() {
        let (nx, ny, nz) = (16usize, 16, 16);
        let mut g = Gpu::new(DeviceSpec::gt8800());
        let a = g.mem_mut().alloc(nx * ny * nz).unwrap();
        let b = g.mem_mut().alloc(nx * ny * nz).unwrap();
        let host: Vec<Complex32> = (0..nx * ny * nz).map(|i| c32(i as f32, 0.5)).collect();
        g.mem_mut().upload(a, 0, &host);
        rotate(&mut g, a, b, nx, ny, nz);
        rotate(&mut g, b, a, nz, nx, ny);
        rotate(&mut g, a, b, ny, nz, nx);
        let mut out = vec![Complex32::ZERO; host.len()];
        g.mem_mut().download(b, 0, &mut out);
        assert_eq!(out, host);
    }
}
