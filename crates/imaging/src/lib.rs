//! # imaging — synthetic images, resize filters and the thumbnail
//! gallery pipeline
//!
//! SoftEng 751 **project 1**: "a small GUI application in which the
//! user could open a folder of images with thumbnails being displayed
//! for each image … the resizing of the images be done in parallel and
//! the GUI remains fully responsive", with one group "comparing the
//! performance across a number of Java parallelisation strategies …
//! investigating different ways to schedule the workload, and using
//! different image input sizes".
//!
//! Substitution (documented in DESIGN.md): no image corpus exists in
//! this container, so [`gen`] synthesises deterministic RGBA images;
//! the resize arithmetic in [`resize`](mod@resize) and the parallel structure in
//! [`gallery`] are the real thing.

pub mod filter;
pub mod gallery;
pub mod gen;
pub mod image;
pub mod resize;

pub use filter::{apply_par, apply_pipeline, apply_seq, Filter2D};
pub use gallery::{render_gallery, GalleryConfig, GalleryReport, Strategy};
pub use image::Image;
pub use resize::{resize, Filter};
