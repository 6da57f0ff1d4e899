//! Precomputed line-start table for resolving byte offsets to `line:col`.
//!
//! Diagnostic rendering used to rescan the whole source per span — O(n)
//! per diagnostic, quadratic for a program with many violations. A
//! [`LineIndex`] is built once per source (one O(n) pass collecting line
//! starts) and then answers every [`LineIndex::line_col`] query with a
//! binary search over the table plus a scan of the single containing line.

use crate::ast::Span;

/// A source string paired with the byte offsets of its line starts.
///
/// Columns count *characters* (not bytes) from the line start, 1-based,
/// matching what editors display; this is exactly the convention
/// [`Span::line_col`] has always used.
#[derive(Clone, Debug)]
pub struct LineIndex<'a> {
    source: &'a str,
    /// Byte offset of the first character of every line; `line_starts[0]`
    /// is always 0.
    line_starts: Vec<usize>,
}

impl<'a> LineIndex<'a> {
    /// Builds the table in one pass over `source`.
    pub fn new(source: &'a str) -> LineIndex<'a> {
        let mut line_starts = vec![0];
        for (i, b) in source.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        LineIndex {
            source,
            line_starts,
        }
    }

    /// The source this index was built over.
    pub fn source(&self) -> &'a str {
        self.source
    }

    /// 1-based `(line, column)` of a byte offset, by binary search.
    ///
    /// Out-of-range offsets clamp to the end of the source and offsets
    /// inside a multi-byte character clamp back to its first byte
    /// (diagnostics with stale spans degrade gracefully rather than
    /// panicking).
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let offset = self.source.floor_char_boundary(offset);
        let line = self
            .line_starts
            .partition_point(|&start| start <= offset)
            .saturating_sub(1);
        let col = self.source[self.line_starts[line]..offset].chars().count() + 1;
        (line + 1, col)
    }

    /// 1-based `(line, column)` of a span's start.
    pub fn span_start(&self, span: Span) -> (usize, usize) {
        self.line_col(span.start)
    }

    /// Number of lines in the source.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_scanning_definition() {
        let src = "ab\ncd\nef";
        let idx = LineIndex::new(src);
        for offset in 0..=src.len() {
            assert_eq!(
                idx.line_col(offset),
                Span::new(offset, offset).line_col(src),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn handles_empty_and_trailing_newline() {
        let idx = LineIndex::new("");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_count(), 1);

        let idx = LineIndex::new("a\n");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(1), (1, 2));
        assert_eq!(idx.line_col(2), (2, 1));
        assert_eq!(idx.line_count(), 2);
    }

    #[test]
    fn out_of_range_offsets_clamp() {
        let idx = LineIndex::new("ab\ncd");
        assert_eq!(idx.line_col(999), (2, 3));
    }

    #[test]
    fn columns_count_chars_not_bytes() {
        let src = "é x\ny";
        let idx = LineIndex::new(src);
        // 'é' is 2 bytes; the 'x' starts at byte 3 but is column 3.
        assert_eq!(idx.line_col(3), (1, 3));
    }

    #[test]
    fn mid_character_offsets_clamp_to_the_char_start() {
        // Stale spans (from a cached artifact of an older source variant)
        // may land inside a multi-byte character; resolve, don't panic.
        let src = "é x\ny";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(1), (1, 1));
        assert_eq!(idx.line_col(0), (1, 1));
    }
}
