//! Per-PE scratchpad buffers (input register, weight SRAM, output buffer).

/// A small addressable scratchpad with access counters.
///
/// The GANAX PE keeps its working set in three scratchpads (Table III: the
/// input register file, the weight SRAM and the partial-sum/output registers);
/// this type models any of them. Reads and writes are counted so the Table II
/// register-file energy can be charged per access.
#[derive(Debug, Clone, PartialEq)]
pub struct Scratchpad {
    data: Vec<f32>,
    reads: u64,
    writes: u64,
}

impl Scratchpad {
    /// Creates a zero-initialised scratchpad with `capacity` words.
    pub fn new(capacity: usize) -> Self {
        Scratchpad {
            data: vec![0.0; capacity],
            reads: 0,
            writes: 0,
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Loads contents starting at word 0 (a bulk fill from the global buffer;
    /// counted as writes).
    ///
    /// # Panics
    /// Panics if `values` exceeds the capacity.
    pub fn fill(&mut self, values: &[f32]) {
        assert!(
            values.len() <= self.data.len(),
            "fill of {} words exceeds scratchpad capacity {}",
            values.len(),
            self.data.len()
        );
        self.data[..values.len()].copy_from_slice(values);
        self.writes += values.len() as u64;
    }

    /// Loads `len` words starting at word 0 through a closure that fills the
    /// destination in place (a gather from the global buffer; counted as
    /// writes, like [`Scratchpad::fill`]).
    ///
    /// # Panics
    /// Panics if `len` exceeds the capacity.
    pub fn fill_with(&mut self, len: usize, f: impl FnOnce(&mut [f32])) {
        assert!(
            len <= self.data.len(),
            "fill of {} words exceeds scratchpad capacity {}",
            len,
            self.data.len()
        );
        f(&mut self.data[..len]);
        self.writes += len as u64;
    }

    /// Reads the word at `addr` (counted).
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    pub fn read(&mut self, addr: u16) -> f32 {
        self.reads += 1;
        self.data[addr as usize]
    }

    /// Writes the word at `addr` (counted).
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: u16, value: f32) {
        self.writes += 1;
        self.data[addr as usize] = value;
    }

    /// Reads a word without counting (for test inspection / result draining).
    pub fn peek(&self, addr: u16) -> f32 {
        self.data[addr as usize]
    }

    /// Charges `n` reads without touching data — a closed-form retire reads
    /// through [`Scratchpad::contents`] and settles the counter once.
    pub(crate) fn charge_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Charges `n` writes without touching data — the per-dispatch retire
    /// path stores through [`Scratchpad::contents_mut`] and settles the
    /// counter once.
    pub(crate) fn charge_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// The full contents (for draining results).
    pub fn contents(&self) -> &[f32] {
        &self.data
    }

    /// Mutable contents for uncounted bulk stores (pair with
    /// [`Scratchpad::charge_writes`] to settle the counter).
    pub(crate) fn contents_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of counted reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of counted writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Resets contents and counters.
    pub fn reset(&mut self) {
        self.data.fill(0.0);
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_read_write_and_counters() {
        let mut pad = Scratchpad::new(8);
        pad.fill(&[1.0, 2.0, 3.0]);
        assert_eq!(pad.capacity(), 8);
        assert_eq!(pad.read(1), 2.0);
        pad.write(5, 9.0);
        assert_eq!(pad.peek(5), 9.0);
        assert_eq!(pad.reads(), 1);
        assert_eq!(pad.writes(), 4);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pad = Scratchpad::new(4);
        pad.fill(&[1.0; 4]);
        pad.read(0);
        pad.reset();
        assert_eq!(pad.peek(0), 0.0);
        assert_eq!(pad.reads(), 0);
        assert_eq!(pad.writes(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds scratchpad capacity")]
    fn oversized_fill_panics() {
        Scratchpad::new(2).fill(&[0.0; 3]);
    }
}
