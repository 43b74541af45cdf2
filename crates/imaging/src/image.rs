//! RGBA image buffer.

/// An 8-bit RGBA image, row-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    /// RGBA bytes, `4 * width * height` of them.
    pixels: Vec<u8>,
}

impl Image {
    /// A black, fully opaque image.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let mut pixels = vec![0u8; (width * height * 4) as usize];
        // Opaque alpha.
        for a in pixels.iter_mut().skip(3).step_by(4) {
            *a = 255;
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw RGBA bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.pixels
    }

    fn offset(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height, "pixel out of bounds");
        ((y * self.width + x) * 4) as usize
    }

    /// Read pixel `(x, y)` as `[r, g, b, a]`.
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> [u8; 4] {
        let o = self.offset(x, y);
        [
            self.pixels[o],
            self.pixels[o + 1],
            self.pixels[o + 2],
            self.pixels[o + 3],
        ]
    }

    /// Write pixel `(x, y)`.
    pub fn set(&mut self, x: u32, y: u32, rgba: [u8; 4]) {
        let o = self.offset(x, y);
        self.pixels[o..o + 4].copy_from_slice(&rgba);
    }

    /// Mean channel values across the image — cheap content
    /// fingerprint used by the tests to compare resize filters.
    #[must_use]
    pub fn mean_rgba(&self) -> [f64; 4] {
        let mut acc = [0.0f64; 4];
        for px in self.pixels.chunks_exact(4) {
            for c in 0..4 {
                acc[c] += f64::from(px[c]);
            }
        }
        let n = (self.width * self.height) as f64;
        acc.map(|v| v / n)
    }

    /// A 64-bit FNV-1a content hash (deterministic fingerprint).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        parc_util::fnv1a(&self.pixels) ^ (u64::from(self.width) << 32 | u64::from(self.height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_black_opaque() {
        let img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.get(0, 0), [0, 0, 0, 255]);
        assert_eq!(img.get(3, 2), [0, 0, 0, 255]);
        assert_eq!(img.bytes().len(), 48);
    }

    #[test]
    fn set_then_get_roundtrip() {
        let mut img = Image::new(2, 2);
        img.set(1, 0, [10, 20, 30, 40]);
        assert_eq!(img.get(1, 0), [10, 20, 30, 40]);
        assert_eq!(img.get(0, 0), [0, 0, 0, 255]);
    }

    #[test]
    fn mean_of_uniform_image() {
        let mut img = Image::new(3, 3);
        for y in 0..3 {
            for x in 0..3 {
                img.set(x, y, [100, 150, 200, 255]);
            }
        }
        let mean = img.mean_rgba();
        assert_eq!(mean, [100.0, 150.0, 200.0, 255.0]);
    }

    #[test]
    fn content_hash_distinguishes() {
        let a = Image::new(4, 4);
        let mut b = Image::new(4, 4);
        b.set(2, 2, [1, 2, 3, 255]);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), Image::new(4, 4).content_hash());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = Image::new(0, 5);
    }
}
