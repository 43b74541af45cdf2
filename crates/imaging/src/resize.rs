//! Image resizing filters.
//!
//! Three quality/cost tiers, as the project brief's "existing
//! functions/libraries to scale the images" would offer: nearest
//! neighbour, bilinear interpolation and box (area-average) filtering
//! — the right choice for thumbnail *downscaling*.

use crate::image::Image;

/// Resampling filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Filter {
    /// Nearest neighbour: fastest, blockiest.
    Nearest,
    /// Bilinear interpolation of the four surrounding pixels.
    Bilinear,
    /// Area average over the source footprint of each target pixel;
    /// the standard thumbnail filter.
    BoxAverage,
}

/// Resize `src` to `dst_w × dst_h` with the given filter.
#[must_use]
pub fn resize(src: &Image, dst_w: u32, dst_h: u32, filter: Filter) -> Image {
    assert!(dst_w > 0 && dst_h > 0, "target dimensions must be positive");
    let mut dst = Image::new(dst_w, dst_h);
    match filter {
        Filter::Nearest => {
            for y in 0..dst_h {
                let sy = (u64::from(y) * u64::from(src.height()) / u64::from(dst_h)) as u32;
                for x in 0..dst_w {
                    let sx = (u64::from(x) * u64::from(src.width()) / u64::from(dst_w)) as u32;
                    dst.set(x, y, src.get(sx, sy));
                }
            }
        }
        Filter::Bilinear => {
            let fx = f64::from(src.width()) / f64::from(dst_w);
            let fy = f64::from(src.height()) / f64::from(dst_h);
            for y in 0..dst_h {
                let sy = (f64::from(y) + 0.5) * fy - 0.5;
                let y0 = sy.floor().max(0.0) as u32;
                let y1 = (y0 + 1).min(src.height() - 1);
                let wy = (sy - f64::from(y0)).clamp(0.0, 1.0);
                for x in 0..dst_w {
                    let sx = (f64::from(x) + 0.5) * fx - 0.5;
                    let x0 = sx.floor().max(0.0) as u32;
                    let x1 = (x0 + 1).min(src.width() - 1);
                    let wx = (sx - f64::from(x0)).clamp(0.0, 1.0);
                    let p00 = src.get(x0, y0);
                    let p10 = src.get(x1, y0);
                    let p01 = src.get(x0, y1);
                    let p11 = src.get(x1, y1);
                    let mut out = [0u8; 4];
                    for c in 0..4 {
                        let top = f64::from(p00[c]) * (1.0 - wx) + f64::from(p10[c]) * wx;
                        let bot = f64::from(p01[c]) * (1.0 - wx) + f64::from(p11[c]) * wx;
                        out[c] = (top * (1.0 - wy) + bot * wy).round() as u8;
                    }
                    dst.set(x, y, out);
                }
            }
        }
        Filter::BoxAverage => {
            for y in 0..dst_h {
                let sy0 = (u64::from(y) * u64::from(src.height()) / u64::from(dst_h)) as u32;
                let sy1 =
                    (((u64::from(y) + 1) * u64::from(src.height())).div_ceil(u64::from(dst_h))
                        as u32)
                        .clamp(sy0 + 1, src.height());
                for x in 0..dst_w {
                    let sx0 = (u64::from(x) * u64::from(src.width()) / u64::from(dst_w)) as u32;
                    let sx1 = (((u64::from(x) + 1) * u64::from(src.width()))
                        .div_ceil(u64::from(dst_w)) as u32)
                        .clamp(sx0 + 1, src.width());
                    let mut acc = [0.0f64; 4];
                    let mut count = 0.0;
                    for sy in sy0..sy1 {
                        for sx in sx0..sx1 {
                            let p = src.get(sx, sy);
                            for c in 0..4 {
                                acc[c] += f64::from(p[c]);
                            }
                            count += 1.0;
                        }
                    }
                    let out = acc.map(|v| (v / count).round() as u8);
                    dst.set(x, y, out);
                }
            }
        }
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Pattern};

    #[test]
    fn output_dimensions() {
        let src = generate(Pattern::Gradient, 40, 30, 1);
        for f in [Filter::Nearest, Filter::Bilinear, Filter::BoxAverage] {
            let t = resize(&src, 10, 5, f);
            assert_eq!((t.width(), t.height()), (10, 5), "{f:?}");
        }
    }

    #[test]
    fn identity_resize_nearest_is_exact() {
        let src = generate(Pattern::Noise, 16, 16, 2);
        let same = resize(&src, 16, 16, Filter::Nearest);
        assert_eq!(src.content_hash(), same.content_hash());
    }

    #[test]
    fn uniform_image_stays_uniform_under_all_filters() {
        let mut src = Image::new(20, 20);
        for y in 0..20 {
            for x in 0..20 {
                src.set(x, y, [77, 88, 99, 255]);
            }
        }
        for f in [Filter::Nearest, Filter::Bilinear, Filter::BoxAverage] {
            let t = resize(&src, 7, 7, f);
            for y in 0..7 {
                for x in 0..7 {
                    assert_eq!(t.get(x, y), [77, 88, 99, 255], "{f:?} at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn box_average_preserves_mean_brightness() {
        let src = generate(Pattern::Plasma, 64, 64, 3);
        let thumb = resize(&src, 16, 16, Filter::BoxAverage);
        let src_mean = src.mean_rgba();
        let thumb_mean = thumb.mean_rgba();
        for c in 0..3 {
            assert!(
                (src_mean[c] - thumb_mean[c]).abs() < 3.0,
                "channel {c}: {} vs {}",
                src_mean[c],
                thumb_mean[c]
            );
        }
    }

    #[test]
    fn box_average_of_checkerboard_is_grey() {
        // 8-px cells averaged over 16-px footprints -> mid grey.
        let src = generate(Pattern::Checkerboard, 64, 64, 0);
        let thumb = resize(&src, 4, 4, Filter::BoxAverage);
        let mean = thumb.mean_rgba();
        assert!((mean[0] - 127.5).abs() < 2.0, "got {}", mean[0]);
    }

    #[test]
    fn nearest_of_checkerboard_aliases() {
        // Nearest sampling every 16th pixel of an 8-cell checkerboard
        // hits the same cell colour each time: fully aliased output.
        let src = generate(Pattern::Checkerboard, 64, 64, 0);
        let thumb = resize(&src, 4, 4, Filter::Nearest);
        let first = thumb.get(0, 0);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(thumb.get(x, y), first);
            }
        }
    }

    #[test]
    fn upscale_bilinear_interpolates_between_pixels() {
        let mut src = Image::new(2, 1);
        src.set(0, 0, [0, 0, 0, 255]);
        src.set(1, 0, [200, 200, 200, 255]);
        let up = resize(&src, 4, 1, Filter::Bilinear);
        // Interior pixels must be strictly between the endpoints.
        let mid = up.get(1, 0)[0];
        assert!(mid > 0 && mid < 200, "mid = {mid}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_rejected() {
        let src = Image::new(4, 4);
        let _ = resize(&src, 0, 4, Filter::Nearest);
    }
}
