//! Pixel filters beyond resizing: grayscale, brightness, box blur,
//! Sobel edges, flips and rotation.
//!
//! Each filter has a sequential form plus a pyjama-parallel form that
//! workshares the output rows — the same disjoint-write pattern as
//! the thumbnail pipeline, giving project 1's "image processing"
//! extension a richer operation set (and the E1 experiment more shapes).

use pyjama::{Schedule, Team};

use crate::image::Image;

/// A pure per-image operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Filter2D {
    /// Luma grayscale (BT.601 weights).
    Grayscale,
    /// Additive brightness (clamped); the parameter is the delta.
    Brighten(i16),
    /// Box blur with the given radius.
    BoxBlur(u8),
    /// Sobel edge magnitude (output is grayscale edges).
    SobelEdges,
    /// Horizontal mirror.
    FlipHorizontal,
    /// Vertical mirror.
    FlipVertical,
    /// Rotate 90° clockwise (swaps dimensions).
    Rotate90,
}

impl Filter2D {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Filter2D::Grayscale => "grayscale".into(),
            Filter2D::Brighten(d) => format!("brighten({d})"),
            Filter2D::BoxBlur(r) => format!("box-blur({r})"),
            Filter2D::SobelEdges => "sobel".into(),
            Filter2D::FlipHorizontal => "flip-h".into(),
            Filter2D::FlipVertical => "flip-v".into(),
            Filter2D::Rotate90 => "rotate90".into(),
        }
    }
}

/// Output dimensions of applying `f` to a `w × h` image.
#[must_use]
pub fn output_dims(f: Filter2D, w: u32, h: u32) -> (u32, u32) {
    match f {
        Filter2D::Rotate90 => (h, w),
        _ => (w, h),
    }
}

fn luma(p: [u8; 4]) -> u8 {
    // BT.601: 0.299 R + 0.587 G + 0.114 B, in fixed point.
    ((299 * u32::from(p[0]) + 587 * u32::from(p[1]) + 114 * u32::from(p[2])) / 1000) as u8
}

/// Compute one output row of `f` applied to `src`.
fn filter_row(src: &Image, f: Filter2D, y: u32, out_w: u32) -> Vec<[u8; 4]> {
    let (w, h) = (src.width(), src.height());
    (0..out_w)
        .map(|x| match f {
            Filter2D::Grayscale => {
                let p = src.get(x, y);
                let g = luma(p);
                [g, g, g, p[3]]
            }
            Filter2D::Brighten(d) => {
                let p = src.get(x, y);
                let adj = |c: u8| (i32::from(c) + i32::from(d)).clamp(0, 255) as u8;
                [adj(p[0]), adj(p[1]), adj(p[2]), p[3]]
            }
            Filter2D::BoxBlur(r) => {
                let r = u32::from(r);
                let x0 = x.saturating_sub(r);
                let x1 = (x + r + 1).min(w);
                let y0 = y.saturating_sub(r);
                let y1 = (y + r + 1).min(h);
                let mut acc = [0u32; 4];
                let mut n = 0u32;
                for sy in y0..y1 {
                    for sx in x0..x1 {
                        let p = src.get(sx, sy);
                        for c in 0..4 {
                            acc[c] += u32::from(p[c]);
                        }
                        n += 1;
                    }
                }
                [
                    (acc[0] / n) as u8,
                    (acc[1] / n) as u8,
                    (acc[2] / n) as u8,
                    (acc[3] / n) as u8,
                ]
            }
            Filter2D::SobelEdges => {
                if x == 0 || y == 0 || x + 1 >= w || y + 1 >= h {
                    return [0, 0, 0, 255];
                }
                let g = |dx: i32, dy: i32| {
                    i32::from(luma(
                        src.get((x as i32 + dx) as u32, (y as i32 + dy) as u32),
                    ))
                };
                let gx = -g(-1, -1) - 2 * g(-1, 0) - g(-1, 1) + g(1, -1) + 2 * g(1, 0) + g(1, 1);
                let gy = -g(-1, -1) - 2 * g(0, -1) - g(1, -1) + g(-1, 1) + 2 * g(0, 1) + g(1, 1);
                let mag = (((gx * gx + gy * gy) as f64).sqrt()).min(255.0) as u8;
                [mag, mag, mag, 255]
            }
            Filter2D::FlipHorizontal => src.get(w - 1 - x, y),
            Filter2D::FlipVertical => src.get(x, h - 1 - y),
            Filter2D::Rotate90 => src.get(y, h - 1 - x),
        })
        .collect()
}

/// Apply a filter sequentially.
#[must_use]
pub fn apply_seq(src: &Image, f: Filter2D) -> Image {
    let (ow, oh) = output_dims(f, src.width(), src.height());
    let mut out = Image::new(ow, oh);
    for y in 0..oh {
        for (x, px) in filter_row(src, f, y, ow).into_iter().enumerate() {
            out.set(x as u32, y, px);
        }
    }
    out
}

/// Apply a filter with a pyjama worksharing loop over output rows.
#[must_use]
pub fn apply_par(team: &Team, src: &Image, f: Filter2D) -> Image {
    let (ow, oh) = output_dims(f, src.width(), src.height());
    let rows: Vec<parking_lot::Mutex<Vec<[u8; 4]>>> = (0..oh)
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    let rows_ref = &rows;
    team.for_each(0..oh as usize, Schedule::Dynamic(8), move |y| {
        *rows_ref[y].lock() = filter_row(src, f, y as u32, ow);
    });
    let mut out = Image::new(ow, oh);
    for (y, row) in rows.into_iter().enumerate() {
        for (x, px) in row.into_inner().into_iter().enumerate() {
            out.set(x as u32, y as u32, px);
        }
    }
    out
}

/// Apply a chain of filters (a small processing pipeline).
#[must_use]
pub fn apply_pipeline(team: &Team, src: &Image, filters: &[Filter2D]) -> Image {
    let mut img = src.clone();
    for &f in filters {
        img = apply_par(team, &img, f);
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Pattern};

    fn sample() -> Image {
        generate(Pattern::Plasma, 24, 18, 7)
    }

    #[test]
    fn parallel_matches_sequential_for_all_filters() {
        let team = Team::new(3);
        let src = sample();
        for f in [
            Filter2D::Grayscale,
            Filter2D::Brighten(40),
            Filter2D::Brighten(-40),
            Filter2D::BoxBlur(2),
            Filter2D::SobelEdges,
            Filter2D::FlipHorizontal,
            Filter2D::FlipVertical,
            Filter2D::Rotate90,
        ] {
            let seq = apply_seq(&src, f);
            let par = apply_par(&team, &src, f);
            assert_eq!(seq.content_hash(), par.content_hash(), "{}", f.label());
        }
    }

    #[test]
    fn grayscale_channels_equal() {
        let out = apply_seq(&sample(), Filter2D::Grayscale);
        for y in 0..out.height() {
            for x in 0..out.width() {
                let p = out.get(x, y);
                assert_eq!(p[0], p[1]);
                assert_eq!(p[1], p[2]);
            }
        }
    }

    #[test]
    fn brighten_clamps() {
        let out = apply_seq(&sample(), Filter2D::Brighten(255));
        for y in 0..out.height() {
            for x in 0..out.width() {
                let p = out.get(x, y);
                assert!(p[0] >= sample().get(x, y)[0]);
            }
        }
        let dark = apply_seq(&sample(), Filter2D::Brighten(-255));
        assert_eq!(dark.mean_rgba()[0], 0.0);
    }

    #[test]
    fn double_flip_is_identity() {
        let src = sample();
        let hh = apply_seq(
            &apply_seq(&src, Filter2D::FlipHorizontal),
            Filter2D::FlipHorizontal,
        );
        assert_eq!(src.content_hash(), hh.content_hash());
        let vv = apply_seq(
            &apply_seq(&src, Filter2D::FlipVertical),
            Filter2D::FlipVertical,
        );
        assert_eq!(src.content_hash(), vv.content_hash());
    }

    #[test]
    fn four_rotations_are_identity() {
        let src = sample();
        let mut img = src.clone();
        for _ in 0..4 {
            img = apply_seq(&img, Filter2D::Rotate90);
        }
        assert_eq!(src.content_hash(), img.content_hash());
    }

    #[test]
    fn rotate_swaps_dimensions() {
        let src = sample(); // 24 x 18
        let rot = apply_seq(&src, Filter2D::Rotate90);
        assert_eq!((rot.width(), rot.height()), (18, 24));
        assert_eq!(output_dims(Filter2D::Rotate90, 24, 18), (18, 24));
        assert_eq!(output_dims(Filter2D::Grayscale, 24, 18), (24, 18));
    }

    #[test]
    fn blur_preserves_mean_roughly() {
        let src = sample();
        let out = apply_seq(&src, Filter2D::BoxBlur(1));
        let (a, b) = (src.mean_rgba(), out.mean_rgba());
        for c in 0..3 {
            assert!(
                (a[c] - b[c]).abs() < 4.0,
                "channel {c}: {} vs {}",
                a[c],
                b[c]
            );
        }
    }

    #[test]
    fn sobel_flat_image_is_black_interior() {
        let mut flat = Image::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                flat.set(x, y, [120, 120, 120, 255]);
            }
        }
        let edges = apply_seq(&flat, Filter2D::SobelEdges);
        for y in 1..9 {
            for x in 1..9 {
                assert_eq!(edges.get(x, y)[0], 0);
            }
        }
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let mut img = Image::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                let v = if x < 5 { 0 } else { 255 };
                img.set(x, y, [v, v, v, 255]);
            }
        }
        let edges = apply_seq(&img, Filter2D::SobelEdges);
        // Strong response at the boundary column, none far away.
        assert!(edges.get(5, 5)[0] > 200 || edges.get(4, 5)[0] > 200);
        assert_eq!(edges.get(2, 5)[0], 0);
    }

    #[test]
    fn pipeline_composes() {
        let team = Team::new(2);
        let src = sample();
        let out = apply_pipeline(
            &team,
            &src,
            &[
                Filter2D::Grayscale,
                Filter2D::BoxBlur(1),
                Filter2D::Rotate90,
            ],
        );
        assert_eq!((out.width(), out.height()), (18, 24));
        let p = out.get(3, 3);
        assert_eq!(p[0], p[1]);
    }
}
