//! Ω's occupancy index: for each variable, the positions of Ω whose
//! instance has an outgoing transition binding it.
//!
//! An event admitted for the variables of `var_ok` can move exactly the
//! instances at the set bits of the union of those variables' rows; every
//! other instance is idle under it. [`crate::engine`] keeps the index
//! exact through every change to Ω — a successor in place, an expired
//! prefix, a rewritten suffix — so the pass over an event visits those
//! instances and no other.

/// One bitset over Ω's positions per variable, stored word-major: word
/// `w` of variable `v`'s row is `bits[w * vars + v]`, so the rows of one
/// word are adjacent and the storage grows by appending words. Bits at
/// positions past Ω's length are always zero.
#[derive(Debug)]
pub(crate) struct Occupancy {
    bits: Vec<u64>,
    vars: usize,
}

/// The words that hold positions `..len`.
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl Occupancy {
    /// An empty index over `vars` variables — at least one, as every
    /// pattern has.
    pub(crate) fn new(vars: usize) -> Occupancy {
        Occupancy {
            bits: Vec::new(),
            vars,
        }
    }

    /// The words each row holds.
    fn words(&self) -> usize {
        self.bits.len() / self.vars
    }

    /// Word `w` of the union of the rows of the variables in `vars`.
    #[inline]
    pub(crate) fn word(&self, w: usize, mut vars: u64) -> u64 {
        let row = &self.bits[w * self.vars..(w + 1) * self.vars];
        let mut union = 0;
        while vars != 0 {
            union |= row[vars.trailing_zeros() as usize];
            vars &= vars - 1;
        }
        union
    }

    /// Flips position `p` in the rows of the variables in `vars`. The
    /// capacity doubles when `p` lies past it and never shrinks, so a
    /// steady Ω allocates nothing.
    #[inline]
    pub(crate) fn toggle(&mut self, p: usize, mut vars: u64) {
        let w = p / 64;
        if w >= self.words() {
            let words = (w + 1).max(2 * self.words());
            self.bits.resize(words * self.vars, 0);
        }
        let row = &mut self.bits[w * self.vars..(w + 1) * self.vars];
        while vars != 0 {
            row[vars.trailing_zeros() as usize] ^= 1 << (p % 64);
            vars &= vars - 1;
        }
    }

    /// Drops positions `..k` of every row and moves the rest down by
    /// `k`, as draining Ω's first `k` instances moves theirs. `len` is
    /// Ω's length before the drain.
    pub(crate) fn shift_out(&mut self, k: usize, len: usize) {
        let used = words_for(len).min(self.words());
        let (skip, bit) = (k / 64, k % 64);
        let vars = self.vars;
        for w in 0..used {
            for v in 0..vars {
                let at = |w: usize| if w < used { self.bits[w * vars + v] } else { 0 };
                let (low, high) = (at(w + skip), at(w + skip + 1));
                self.bits[w * vars + v] = if bit == 0 {
                    low
                } else {
                    low >> bit | high << (64 - bit)
                };
            }
        }
    }

    /// Clears positions `first..len` of every row, `len` being at least
    /// Ω's length.
    pub(crate) fn clear_from(&mut self, first: usize, len: usize) {
        let used = words_for(len).min(self.words());
        if first / 64 >= used {
            return;
        }
        let keep = (1u64 << (first % 64)) - 1;
        for bits in &mut self.bits[first / 64 * self.vars..(first / 64 + 1) * self.vars] {
            *bits &= keep;
        }
        self.bits[(first / 64 + 1) * self.vars..used * self.vars].fill(0);
    }

    /// The variables whose rows hold position `p`.
    pub(crate) fn vars_at(&self, p: usize) -> u64 {
        let w = p / 64;
        if w >= self.words() {
            return 0;
        }
        let row = &self.bits[w * self.vars..(w + 1) * self.vars];
        row.iter()
            .enumerate()
            .fold(0, |vars, (v, word)| vars | (word >> (p % 64) & 1) << v)
    }

    /// Whether no row holds a position at or past `len`.
    pub(crate) fn is_clear_from(&self, len: usize) -> bool {
        let w = len / 64;
        self.bits
            .iter()
            .enumerate()
            .skip(w * self.vars)
            .all(|(i, &word)| {
                if i / self.vars == w {
                    word >> (len % 64) == 0
                } else {
                    word == 0
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The positions set in `v`'s row, ascending.
    fn row(o: &Occupancy, v: usize) -> Vec<usize> {
        (0..o.words() * 64)
            .filter(|&p| o.word(p / 64, 1 << v) >> (p % 64) & 1 == 1)
            .collect()
    }

    fn filled(positions: &[usize], vars: u64) -> Occupancy {
        let mut o = Occupancy::new(3);
        for &p in positions {
            o.toggle(p, vars);
        }
        o
    }

    #[test]
    fn shift_out_moves_every_row_down_across_words() {
        let positions = [0, 1, 62, 63, 64, 65, 127, 128, 130, 200];
        for k in [0, 1, 2, 63, 64, 65, 128, 129, 201] {
            let mut o = filled(&positions, 0b101);
            o.shift_out(k, 201);
            let moved: Vec<usize> = positions
                .iter()
                .filter(|&&p| p >= k)
                .map(|&p| p - k)
                .collect();
            assert_eq!(row(&o, 0), moved, "k = {k}");
            assert_eq!(row(&o, 2), moved, "k = {k}");
            assert!(row(&o, 1).is_empty());
        }
    }

    #[test]
    fn clear_from_keeps_the_prefix_only() {
        let positions = [0, 5, 63, 64, 100, 128, 190];
        for first in [0, 5, 6, 63, 64, 65, 128, 191, 256] {
            let mut o = filled(&positions, 0b010);
            o.clear_from(first, 191);
            let kept: Vec<usize> = positions.iter().copied().filter(|&p| p < first).collect();
            assert_eq!(row(&o, 1), kept, "first = {first}");
        }
    }

    #[test]
    fn toggle_grows_by_doubling_and_reads_back_per_position() {
        let mut o = Occupancy::new(3);
        o.toggle(64, 0b1);
        assert_eq!(o.words(), 2);
        o.toggle(130, 0b101);
        assert_eq!(o.words(), 4, "3 words needed, the capacity doubles");
        assert_eq!(
            (o.vars_at(64), o.vars_at(130), o.vars_at(63)),
            (0b1, 0b101, 0)
        );
        assert_eq!(o.vars_at(1000), 0, "past the capacity");
        assert!(o.is_clear_from(131) && !o.is_clear_from(130));
        o.toggle(130, 0b101);
        assert_eq!(row(&o, 0), [64]);
        assert!(o.is_clear_from(65) && !o.is_clear_from(64) && !o.is_clear_from(0));
    }
}
