//! The reconfigurable decoder from the paper's conclusions.
//!
//! > "No decoder re-design is required in case of a test set modification,
//! > if an all-U matching vector is used; however, the compression rate
//! > might suffer. A reconfigurable decoder, into which the codeword /
//! > matching vector information can be loaded, would solve this problem."
//!
//! [`ReconfigurableDecoder`] models exactly that device: a RAM-backed
//! decoder that accepts new `(code, MV)` tables between test sessions and
//! otherwise behaves like the hard-wired [`crate::DecoderFsm`].

use evotc_bits::InputBlock;
use evotc_codes::PrefixCode;
use evotc_core::{CompressedTestSet, MvSet};

use crate::cost::HardwareCost;
use crate::fsm::DecoderFsm;

/// A decoder whose tables live in on-chip RAM and can be reloaded.
///
/// # Example
///
/// ```
/// use evotc_bits::TestSet;
/// use evotc_core::{NineCCompressor, NineCHuffmanCompressor, TestCompressor};
/// use evotc_decoder::ReconfigurableDecoder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set_a = TestSet::parse(&["111100", "000000"])?;
/// let set_b = TestSet::parse(&["101010", "010101"])?;
/// let a = NineCCompressor::new(6).compress(&set_a)?;
/// let b = NineCHuffmanCompressor::new(6).compress(&set_b)?;
///
/// let mut decoder = ReconfigurableDecoder::new(16, 64);
/// decoder.load(a.mv_set().clone(), a.code().clone())?;
/// assert!(set_a.is_refined_by(&decoder.decompress(&a)?));
/// // New test set: reload instead of redesigning.
/// decoder.load(b.mv_set().clone(), b.code().clone())?;
/// assert!(set_b.is_refined_by(&decoder.decompress(&b)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReconfigurableDecoder {
    max_mvs: usize,
    max_block_len: usize,
    tables: Option<(MvSet, PrefixCode)>,
    reloads: u64,
}

/// Error loading tables into a [`ReconfigurableDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// More MVs than the device's RAM can hold.
    TooManyMvs {
        /// Offered table size.
        offered: usize,
        /// Device capacity.
        capacity: usize,
    },
    /// Block length exceeds the device's shift register.
    BlockTooLong {
        /// Offered block length.
        offered: usize,
        /// Device capacity.
        capacity: usize,
    },
    /// Code and MV table sizes differ.
    TableMismatch,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::TooManyMvs { offered, capacity } => {
                write!(f, "{offered} MVs exceed the device capacity of {capacity}")
            }
            LoadError::BlockTooLong { offered, capacity } => {
                write!(
                    f,
                    "block length {offered} exceeds the device capacity of {capacity}"
                )
            }
            LoadError::TableMismatch => write!(f, "code and MV table sizes differ"),
        }
    }
}

impl std::error::Error for LoadError {}

impl ReconfigurableDecoder {
    /// Creates a device with room for `max_mvs` matching vectors of up to
    /// `max_block_len` bits.
    pub fn new(max_mvs: usize, max_block_len: usize) -> Self {
        ReconfigurableDecoder {
            max_mvs,
            max_block_len,
            tables: None,
            reloads: 0,
        }
    }

    /// Loads new tables (a "test set modification" in the paper's terms).
    ///
    /// # Errors
    ///
    /// Returns a `LoadError` if the tables exceed the device capacity or
    /// are inconsistent.
    pub fn load(&mut self, mvs: MvSet, code: PrefixCode) -> Result<(), LoadError> {
        if code.len() != mvs.len() {
            return Err(LoadError::TableMismatch);
        }
        if mvs.len() > self.max_mvs {
            return Err(LoadError::TooManyMvs {
                offered: mvs.len(),
                capacity: self.max_mvs,
            });
        }
        if mvs.block_len() > self.max_block_len {
            return Err(LoadError::BlockTooLong {
                offered: mvs.block_len(),
                capacity: self.max_block_len,
            });
        }
        self.tables = Some((mvs, code));
        self.reloads += 1;
        Ok(())
    }

    /// Number of table loads performed.
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// The worst-case hardware cost of the device itself (RAM sized for the
    /// maximum configuration, independent of the loaded tables).
    pub fn device_cost(&self) -> HardwareCost {
        // RAM for max_mvs × max_block_len 2-bit entries plus codeword
        // storage; FSM is replaced by a comparator over the codeword RAM.
        let table_bits = self.max_mvs * self.max_block_len * 2 + self.max_mvs * 16;
        let counter_bits = usize::BITS as usize - self.max_block_len.leading_zeros() as usize;
        let flip_flops = counter_bits + self.max_block_len + 8;
        HardwareCost {
            fsm_states: self.max_mvs,
            table_bits,
            flip_flops,
            gate_equivalents: flip_flops * 4 + table_bits + self.max_mvs * 2,
        }
    }

    /// Decompresses a stream with the loaded tables.
    ///
    /// # Errors
    ///
    /// Returns [`evotc_core::CompressError::CorruptStream`] if the stream
    /// does not decode under the loaded tables.
    ///
    /// # Panics
    ///
    /// Panics if no tables are loaded.
    pub fn decompress(
        &self,
        compressed: &CompressedTestSet,
    ) -> Result<evotc_bits::TestSet, evotc_core::CompressError> {
        let (mvs, code) = self
            .tables
            .as_ref()
            .expect("no tables loaded into the reconfigurable decoder");
        let mut fsm = DecoderFsm::new(mvs.clone(), code.clone());
        let mut blocks: Vec<InputBlock> = Vec::new();
        for bit in compressed.stream() {
            if let Some(block) = fsm.clock(bit) {
                blocks.push(block);
            }
        }
        if blocks.len() * mvs.block_len() < compressed.original_bits {
            return Err(evotc_core::CompressError::CorruptStream {
                bit_offset: compressed.compressed_bits,
            });
        }
        Ok(evotc_bits::TestSetString::reassemble(
            &blocks,
            mvs.block_len(),
            compressed.width,
            compressed.original_bits,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_bits::TestSet;
    use evotc_core::{NineCCompressor, TestCompressor};

    #[test]
    fn reload_switches_test_sets() {
        let set_a = TestSet::parse(&["111100", "000000", "111111"]).unwrap();
        let set_b = TestSet::parse(&["10XX10", "010101"]).unwrap();
        let a = NineCCompressor::new(6).compress(&set_a).unwrap();
        let b = NineCCompressor::new(6).compress(&set_b).unwrap();
        let mut dev = ReconfigurableDecoder::new(16, 32);
        dev.load(a.mv_set().clone(), a.code().clone()).unwrap();
        assert!(set_a.is_refined_by(&dev.decompress(&a).unwrap()));
        dev.load(b.mv_set().clone(), b.code().clone()).unwrap();
        assert!(set_b.is_refined_by(&dev.decompress(&b).unwrap()));
        assert_eq!(dev.reloads(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let set = TestSet::parse(&["111100"]).unwrap();
        let c = NineCCompressor::new(6).compress(&set).unwrap();
        let mut tiny = ReconfigurableDecoder::new(2, 32);
        assert!(matches!(
            tiny.load(c.mv_set().clone(), c.code().clone()),
            Err(LoadError::TooManyMvs { .. })
        ));
        let mut short = ReconfigurableDecoder::new(16, 4);
        assert!(matches!(
            short.load(c.mv_set().clone(), c.code().clone()),
            Err(LoadError::BlockTooLong { .. })
        ));
    }

    #[test]
    fn device_cost_scales_with_capacity() {
        let small = ReconfigurableDecoder::new(9, 8).device_cost();
        let large = ReconfigurableDecoder::new(64, 12).device_cost();
        assert!(large.gate_equivalents > small.gate_equivalents);
    }

    #[test]
    #[should_panic(expected = "no tables loaded")]
    fn decompress_requires_tables() {
        let set = TestSet::parse(&["111100"]).unwrap();
        let c = NineCCompressor::new(6).compress(&set).unwrap();
        let dev = ReconfigurableDecoder::new(16, 32);
        let _ = dev.decompress(&c);
    }
}
