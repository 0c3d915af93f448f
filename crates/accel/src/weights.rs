//! Weight-memory images: the byte-exact layout a host would DMA into
//! the accelerator's weight memory.
//!
//! The weight memory feeds the systolic array one 512-bit word (64 INT8
//! weights — one row of a Fig. 4 panel) per cycle. An image therefore
//! stores every panel row-major, 64 bytes per word, in Algorithm-1
//! issue order, with a directory mapping panel ids to word offsets. The
//! image for one MHA ResBlock must fit the weight memory the area model
//! provisions (456 BRAM36 = two buffers of 1 MB + bias storage).

use bytes::{BufMut, Bytes, BytesMut};
use quantized::QuantMhaResBlock;
use tensor::Mat;

use crate::partition::PANEL_COLS;

/// Bytes per weight-memory word (512-bit port = one panel row).
pub(crate) const WORD_BYTES: usize = PANEL_COLS;

/// Directory entry: where one panel lives in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelEntry {
    /// Panel label (e.g. `"wq.0"`, `"w1.17"`).
    pub name: String,
    /// First word offset.
    pub word_offset: usize,
    /// Number of words (= the panel's reduction depth `k`).
    pub words: usize,
}

/// A packed weight image plus its panel directory.
#[derive(Debug, Clone)]
pub struct WeightImage {
    data: Bytes,
    directory: Vec<PanelEntry>,
}

/// Packs one weight matrix into 64-byte panel-row words, appending to
/// `buf` and the directory. Panels narrower than 64 columns (non-Table-I
/// configs) are zero-padded to the word width, exactly as the memory's
/// unused lanes would be.
fn pack_matrix(buf: &mut BytesMut, dir: &mut Vec<PanelEntry>, name: &str, w: &Mat<i8>) {
    for (p, panel) in w.col_panels(PANEL_COLS).iter().enumerate() {
        let word_offset = buf.len() / WORD_BYTES;
        for r in 0..panel.rows() {
            let row = panel.row(r);
            for &v in row {
                buf.put_i8(v);
            }
            for _ in row.len()..WORD_BYTES {
                buf.put_i8(0);
            }
        }
        dir.push(PanelEntry {
            name: format!("{name}.{p}"),
            word_offset,
            words: panel.rows(),
        });
    }
}

impl WeightImage {
    /// Packs an MHA ResBlock's four projection matrices in Algorithm-1
    /// issue order (`W_Q, W_K, W_V, W_G`).
    pub fn from_mha(block: &QuantMhaResBlock) -> Self {
        let (wq, wk, wv, wo) = block.projections();
        let mut buf = BytesMut::new();
        let mut dir = Vec::new();
        pack_matrix(&mut buf, &mut dir, "wq", wq.weight_q());
        pack_matrix(&mut buf, &mut dir, "wk", wk.weight_q());
        pack_matrix(&mut buf, &mut dir, "wv", wv.weight_q());
        pack_matrix(&mut buf, &mut dir, "wg", wo.weight_q());
        Self {
            data: buf.freeze(),
            directory: dir,
        }
    }

    /// The raw image bytes (what the host DMAs).
    #[cfg(test)]
    pub(crate) fn data(&self) -> &Bytes {
        &self.data
    }

    /// Image size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Image size in 512-bit words.
    pub fn word_len(&self) -> usize {
        self.data.len() / WORD_BYTES
    }

    /// The panel directory, in streaming order.
    pub fn directory(&self) -> &[PanelEntry] {
        &self.directory
    }

    /// Looks up a panel by name.
    #[cfg(test)]
    pub(crate) fn find(&self, name: &str) -> Option<&PanelEntry> {
        self.directory.iter().find(|e| e.name == name)
    }

    /// Reconstructs a panel matrix from the image — the readback path,
    /// proving the layout is lossless.
    ///
    /// # Panics
    ///
    /// Panics if the panel name is unknown.
    #[cfg(test)]
    pub(crate) fn unpack(&self, name: &str, cols: usize) -> Mat<i8> {
        let entry = self
            .find(name)
            .unwrap_or_else(|| panic!("unknown panel '{name}'"));
        assert!(cols <= WORD_BYTES, "panel wider than a word");
        Mat::from_fn(entry.words, cols, |r, c| {
            self.data[(entry.word_offset + r) * WORD_BYTES + c] as i8
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::mha::MhaResBlock;

    fn mha_block() -> QuantMhaResBlock {
        // A Table-I-patterned mini config so panels are exactly 64 wide.
        let cfg = ModelConfig {
            name: "img".into(),
            d_model: 128,
            d_ff: 512,
            h: 2,
            n_layers: 1,
            vocab: 16,
            max_len: 8,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mha = MhaResBlock::new(&cfg, &mut rng);
        let calib: Vec<_> = (0..2)
            .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
            .collect();
        QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware)
    }

    #[test]
    fn mha_image_size_matches_weight_bytes() {
        let mha = mha_block();
        let img = WeightImage::from_mha(&mha);
        // 4 matrices of 128x128 INT8, panels exactly 64 wide
        assert_eq!(img.byte_len(), 4 * 128 * 128);
        assert_eq!(img.word_len(), 4 * 128 * 2);
        // directory: 4 matrices x 2 panels
        assert_eq!(img.directory().len(), 8);
    }

    #[test]
    fn panels_round_trip_losslessly() {
        let mha = mha_block();
        let img = WeightImage::from_mha(&mha);
        let (wq, _, _, wo) = mha.projections();
        let want_q0 = wq.weight_q().col_panels(64)[0].clone();
        assert_eq!(img.unpack("wq.0", 64), want_q0);
        let want_g1 = wo.weight_q().col_panels(64)[1].clone();
        assert_eq!(img.unpack("wg.1", 64), want_g1);
    }

    #[test]
    fn directory_is_contiguous_and_ordered() {
        let mha = mha_block();
        let img = WeightImage::from_mha(&mha);
        let mut expected_offset = 0;
        for e in img.directory() {
            assert_eq!(e.word_offset, expected_offset, "{}", e.name);
            expected_offset += e.words;
        }
        assert_eq!(expected_offset, img.word_len());
    }

    #[test]
    fn base_model_image_fits_the_provisioned_weight_memory() {
        // The area model provisions 456 BRAM36 as a double buffer of the
        // MHA matrices: each buffer must hold one MHA image.
        let cfg = ModelConfig::transformer_base();
        let image_bytes = 4 * cfg.d_model * cfg.d_model; // INT8
        let provisioned = 456.0 * 36.0 * 1024.0 / 8.0 / 2.0; // one buffer
        assert!(
            (image_bytes as f64) <= provisioned,
            "{image_bytes} > {provisioned}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown panel")]
    fn unknown_panel_rejected() {
        let mha = mha_block();
        let img = WeightImage::from_mha(&mha);
        let _ = img.unpack("nope.0", 64);
    }

    #[test]
    fn narrow_panels_are_zero_padded() {
        // tiny config: d_model = 32 < 64 -> single panel, padded words
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(10);
        let mha = MhaResBlock::new(&cfg, &mut rng);
        let calib: Vec<_> = (0..2)
            .map(|_| tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0))
            .collect();
        let q = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let img = WeightImage::from_mha(&q);
        // each word is still 64 bytes; columns 32..64 are zero
        let e = img.find("wq.0").unwrap();
        for r in 0..e.words {
            for c in 32..64 {
                assert_eq!(img.data()[(e.word_offset + r) * WORD_BYTES + c], 0);
            }
        }
    }
}
