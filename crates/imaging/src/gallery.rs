//! The thumbnail-gallery pipeline under interchangeable
//! parallelisation strategies (the heart of project 1).
//!
//! A "folder" of images is thumbnailed with one of:
//!
//! * [`Strategy::Sequential`] — the baseline;
//! * [`Strategy::TaskPerImage`] — one partask task per image (the
//!   Parallel Task `TASK` phrasing);
//! * [`Strategy::MultiTask`] — a `TASK(n)` multi-task striding the
//!   gallery (fewer, bigger tasks);
//! * [`Strategy::PyjamaDynamic`] / [`Strategy::PyjamaStatic`] —
//!   worksharing loops (the Pyjama phrasing), dynamic matching the
//!   skew from mixed image sizes.
//!
//! Finished thumbnails can be streamed through an
//! [`partask::InterimSender`] as they complete — in the GUI example
//! that sender forwards to the event-dispatch thread, reproducing the
//! "thumbnails appear while the user scrolls" behaviour.

use std::sync::Arc;

use parking_lot::Mutex;
use partask::{InterimSender, TaskRuntime};
use pyjama::{Schedule, Team};

use crate::image::Image;
use crate::resize::{resize, Filter};

/// Parallelisation strategy for the gallery render.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// One thread, in order.
    Sequential,
    /// One partask task per image.
    TaskPerImage,
    /// A multi-task of `n` instances, instance `i` handling images
    /// `i, i+n, i+2n, …`.
    MultiTask(usize),
    /// Pyjama worksharing loop, dynamic schedule with given chunk.
    PyjamaDynamic(usize),
    /// Pyjama worksharing loop, static schedule.
    PyjamaStatic,
}

impl Strategy {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Strategy::Sequential => "sequential".into(),
            Strategy::TaskPerImage => "task-per-image".into(),
            Strategy::MultiTask(n) => format!("multi-task({n})"),
            Strategy::PyjamaDynamic(c) => format!("pyjama-dynamic({c})"),
            Strategy::PyjamaStatic => "pyjama-static".into(),
        }
    }
}

/// Gallery parameters.
#[derive(Clone, Debug)]
pub struct GalleryConfig {
    /// Thumbnail width.
    pub thumb_w: u32,
    /// Thumbnail height.
    pub thumb_h: u32,
    /// Resampling filter.
    pub filter: Filter,
    /// Parallelisation strategy.
    pub strategy: Strategy,
}

impl Default for GalleryConfig {
    fn default() -> Self {
        Self {
            thumb_w: 128,
            thumb_h: 128,
            filter: Filter::BoxAverage,
            strategy: Strategy::Sequential,
        }
    }
}

/// Outcome of a gallery render.
#[derive(Debug)]
pub struct GalleryReport {
    /// Thumbnails in the input order.
    pub thumbnails: Vec<Image>,
    /// Strategy label used.
    pub strategy: String,
}

/// Render thumbnails for every image in the folder. Completed
/// thumbnails are additionally streamed (index + thumbnail) through
/// `on_thumb` if provided — in completion order, which for the
/// parallel strategies is *not* input order.
#[must_use]
pub fn render_gallery(
    images: &Arc<Vec<Image>>,
    cfg: &GalleryConfig,
    rt: &TaskRuntime,
    team: &Team,
    on_thumb: Option<&InterimSender<(usize, Image)>>,
) -> GalleryReport {
    let n = images.len();
    let (w, h, filter) = (cfg.thumb_w, cfg.thumb_h, cfg.filter);
    let thumbnails: Vec<Image> = match cfg.strategy {
        Strategy::Sequential => images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let t = resize(img, w, h, filter);
                if let Some(tx) = on_thumb {
                    tx.send((i, t.clone()));
                }
                t
            })
            .collect(),
        Strategy::TaskPerImage => {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let images = Arc::clone(images);
                    let tx = on_thumb.cloned();
                    rt.spawn(move || {
                        let t = resize(&images[i], w, h, filter);
                        if let Some(tx) = &tx {
                            tx.send((i, t.clone()));
                        }
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thumbnail task"))
                .collect()
        }
        Strategy::MultiTask(k) => {
            let k = k.clamp(1, n.max(1));
            let images2 = Arc::clone(images);
            let tx = on_thumb.cloned();
            let multi = rt.spawn_batch(k, move |inst| {
                let mut out = Vec::new();
                let mut i = inst;
                while i < images2.len() {
                    let t = resize(&images2[i], w, h, filter);
                    if let Some(tx) = &tx {
                        tx.send((i, t.clone()));
                    }
                    out.push((i, t));
                    i += k;
                }
                out
            });
            let mut slots: Vec<Option<Image>> = (0..n).map(|_| None).collect();
            let parts = multi.join().into_iter().collect::<Result<Vec<_>, _>>();
            for batch in parts.expect("multi-task") {
                for (i, t) in batch {
                    slots[i] = Some(t);
                }
            }
            slots
                .into_iter()
                .map(|s| s.expect("all rendered"))
                .collect()
        }
        Strategy::PyjamaDynamic(chunk) => {
            render_pyjama(images, cfg, team, Schedule::Dynamic(chunk.max(1)), on_thumb)
        }
        Strategy::PyjamaStatic => render_pyjama(images, cfg, team, Schedule::Static, on_thumb),
    };
    GalleryReport {
        thumbnails,
        strategy: cfg.strategy.label(),
    }
}

fn render_pyjama(
    images: &Arc<Vec<Image>>,
    cfg: &GalleryConfig,
    team: &Team,
    schedule: Schedule,
    on_thumb: Option<&InterimSender<(usize, Image)>>,
) -> Vec<Image> {
    let n = images.len();
    let (w, h, filter) = (cfg.thumb_w, cfg.thumb_h, cfg.filter);
    let slots: Vec<Mutex<Option<Image>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let slots_ref = &slots;
    let images_ref = &images;
    team.for_each(0..n, schedule, move |i| {
        let t = resize(&images_ref[i], w, h, filter);
        if let Some(tx) = on_thumb {
            tx.send((i, t.clone()));
        }
        *slots_ref[i].lock() = Some(t);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("all rendered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_folder;
    use partask::interim;

    fn engines() -> (TaskRuntime, Team) {
        (TaskRuntime::builder().workers(2).build(), Team::new(2))
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::Sequential,
            Strategy::TaskPerImage,
            Strategy::MultiTask(3),
            Strategy::PyjamaDynamic(2),
            Strategy::PyjamaStatic,
        ]
    }

    #[test]
    fn all_strategies_agree_bit_for_bit() {
        let (rt, team) = engines();
        let images = Arc::new(generate_folder(9, 16, 48, 5));
        let mut reference: Option<Vec<u64>> = None;
        for strategy in all_strategies() {
            let cfg = GalleryConfig {
                thumb_w: 12,
                thumb_h: 12,
                strategy,
                ..GalleryConfig::default()
            };
            let report = render_gallery(&images, &cfg, &rt, &team, None);
            assert_eq!(report.thumbnails.len(), 9);
            let hashes: Vec<u64> = report.thumbnails.iter().map(Image::content_hash).collect();
            match &reference {
                None => reference = Some(hashes),
                Some(r) => assert_eq!(r, &hashes, "strategy {}", report.strategy),
            }
        }
        rt.shutdown();
    }

    #[test]
    fn thumbnails_have_requested_size() {
        let (rt, team) = engines();
        let images = Arc::new(generate_folder(4, 20, 40, 6));
        let cfg = GalleryConfig {
            thumb_w: 10,
            thumb_h: 7,
            strategy: Strategy::TaskPerImage,
            ..GalleryConfig::default()
        };
        let report = render_gallery(&images, &cfg, &rt, &team, None);
        for t in &report.thumbnails {
            assert_eq!((t.width(), t.height()), (10, 7));
        }
        rt.shutdown();
    }

    #[test]
    fn interim_stream_delivers_every_thumbnail_once() {
        let (rt, team) = engines();
        let images = Arc::new(generate_folder(8, 16, 24, 7));
        for strategy in all_strategies() {
            let (tx, rx) = interim::channel::<(usize, Image)>();
            let cfg = GalleryConfig {
                thumb_w: 8,
                thumb_h: 8,
                strategy,
                ..GalleryConfig::default()
            };
            let _ = render_gallery(&images, &cfg, &rt, &team, Some(&tx));
            let mut indices: Vec<usize> = rx.try_drain().into_iter().map(|(i, _)| i).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..8).collect::<Vec<_>>(), "{strategy:?}");
        }
        rt.shutdown();
    }

    #[test]
    fn multi_task_clamps_instance_count() {
        let (rt, team) = engines();
        let images = Arc::new(generate_folder(3, 16, 16, 8));
        let cfg = GalleryConfig {
            thumb_w: 4,
            thumb_h: 4,
            strategy: Strategy::MultiTask(64), // more instances than images
            ..GalleryConfig::default()
        };
        let report = render_gallery(&images, &cfg, &rt, &team, None);
        assert_eq!(report.thumbnails.len(), 3);
        rt.shutdown();
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Sequential.label(), "sequential");
        assert_eq!(Strategy::MultiTask(4).label(), "multi-task(4)");
        assert_eq!(Strategy::PyjamaDynamic(8).label(), "pyjama-dynamic(8)");
    }
}
