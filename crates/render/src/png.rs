//! PNG encoding with a from-scratch DEFLATE compressor.
//!
//! The snapshot attribute's whole point is shipping a *small* image to the
//! device, so the encoder compresses for real: LZ77 with hash-chain match
//! search over a 32 KiB window, emitted with the fixed Huffman codes of
//! RFC 1951, wrapped in zlib (RFC 1950) and PNG chunks. Synthetic page
//! renders are dominated by flat runs, which this compresses by 50–200×.

use crate::canvas::Canvas;
use msite_support::swar;

/// Encodes a canvas as a truecolor (8-bit RGB) PNG.
///
/// # Examples
///
/// ```
/// use msite_render::{Canvas, Color, png};
///
/// let canvas = Canvas::new(64, 64, Color::WHITE);
/// let bytes = png::encode(&canvas);
/// assert_eq!(&bytes[..8], &[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']);
/// assert!(bytes.len() < 64 * 64 * 3); // compression actually happened
/// ```
pub fn encode(canvas: &Canvas) -> Vec<u8> {
    // Raw scanlines, each prefixed with filter type 0 (None).
    let width = canvas.width() as usize;
    let stride = width * 3;
    let mut raw = Vec::with_capacity((stride + 1) * canvas.height() as usize);
    for row in canvas.pixels().chunks_exact(stride) {
        raw.push(0u8);
        raw.extend_from_slice(row);
    }
    let compressed = zlib_compress(&raw);

    let mut out = Vec::with_capacity(compressed.len() + 128);
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']);
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&canvas.width().to_be_bytes());
    ihdr.extend_from_slice(&canvas.height().to_be_bytes());
    ihdr.extend_from_slice(&[8, 2, 0, 0, 0]); // depth 8, color RGB
    write_chunk(&mut out, b"IHDR", &ihdr);
    write_chunk(&mut out, b"IDAT", &compressed);
    write_chunk(&mut out, b"IEND", &[]);
    out
}

fn write_chunk(out: &mut Vec<u8>, kind: &[u8; 4], data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(data);
    let mut crc = Crc32::new();
    crc.update(kind);
    crc.update(data);
    out.extend_from_slice(&crc.finish().to_be_bytes());
}

/// Compresses `data` into a zlib stream (deflate with fixed Huffman).
pub fn zlib_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x78, 0x9C]; // CMF/FLG, (0x789C % 31 == 0)
    deflate_fixed(data, &mut out, false);
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Per-byte/per-bit twin of [`zlib_compress`]: same LZ77 search and
/// fixed-Huffman coding without the word-at-a-time match extension or
/// the reversed-code table. The identity gates pin the two byte-equal.
#[doc(hidden)]
pub fn zlib_compress_scalar(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x78, 0x9C];
    deflate_fixed(data, &mut out, true);
    out.extend_from_slice(&adler32_scalar(data).to_be_bytes());
    out
}

// -------------------------------------------------------------------
// Checksums
// -------------------------------------------------------------------

/// The CRC-32 (IEEE, reflected) polynomial in its shifted form.
const CRC_POLY: u32 = 0xEDB8_8320;

/// One bitwise table entry: eight shift-and-conditional-xor rounds.
const fn crc_entry(index: u32) -> u32 {
    let mut x = index;
    let mut bit = 0;
    while bit < 8 {
        x = if x & 1 != 0 {
            (x >> 1) ^ CRC_POLY
        } else {
            x >> 1
        };
        bit += 1;
    }
    x
}

/// Slicing-by-8 lookup tables, built at compile time. `CRC_TABLES[0]` is
/// the classic byte-at-a-time table; table `k` advances a byte through
/// `k` further zero bytes, letting [`Crc32::update`] fold eight input
/// bytes per iteration with no data dependence between the lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc_entry(i as u32);
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC-32 (IEEE, reflected) used by PNG chunks.
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes through the slicing-by-8 tables: eight bytes per
    /// iteration, one table lookup each, byte-identical to
    /// [`Crc32::update_bitwise`].
    pub fn update(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(8);
        let mut state = self.state;
        for chunk in chunks.by_ref() {
            let low = state ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            state = CRC_TABLES[7][(low & 0xFF) as usize]
                ^ CRC_TABLES[6][((low >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((low >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(low >> 24) as usize]
                ^ CRC_TABLES[3][chunk[4] as usize]
                ^ CRC_TABLES[2][chunk[5] as usize]
                ^ CRC_TABLES[1][chunk[6] as usize]
                ^ CRC_TABLES[0][chunk[7] as usize];
        }
        for &byte in chunks.remainder() {
            state = (state >> 8) ^ CRC_TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// The original per-bit inner loop, kept as the scalar reference the
    /// identity gates and the `hotpath` bench baseline run against.
    #[doc(hidden)]
    pub fn update_bitwise(&mut self, data: &[u8]) {
        for &byte in data {
            let mut x = (self.state ^ byte as u32) & 0xFF;
            for _ in 0..8 {
                x = if x & 1 != 0 {
                    (x >> 1) ^ CRC_POLY
                } else {
                    x >> 1
                };
            }
            self.state = (self.state >> 8) ^ x;
        }
    }

    /// Finalizes and returns the checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Adler-32 checksum used by the zlib wrapper.
///
/// The per-byte reference is a serial two-deep dependence chain
/// (`a += d; b += a`), which caps it at ~2 cycles/byte. This form
/// rewrites each 5552-byte chunk in closed form —
/// `b' = b + n·a + n·Σdᵢ − Σi·dᵢ` and `a' = a + Σdᵢ` — so the loop
/// body is two *independent* integer reductions the compiler is free
/// to unroll with parallel accumulators (integer addition
/// reassociates; the serial chain is gone). The 5552-byte chunk is
/// the standard largest span for which the sums cannot overflow
/// before the modulo; in `u64` the bound holds with room to spare.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u64 = 65_521;
    let mut a: u64 = 1;
    let mut b: u64 = 0;
    for chunk in data.chunks(5552) {
        let n = chunk.len() as u64;
        // Split the chunk into 16-byte blocks and decompose
        // Σi·dᵢ = 16·Σ_b b·S_b + Σ_k k·C_k, where S_b is block b's sum
        // and C_k is the column sum of lane k across blocks. Column
        // sums are plain lane-wise adds (vectorizable on baseline
        // SSE2, which has no 32-bit vector multiply), and Σ_b b·S_b
        // comes out of Abel summation — B·s − Σ_j s_j — so the hot
        // loop contains no multiplies at all. All accumulators stay in
        // u32: over one chunk, C_k ≤ 347·255, s ≤ 5552·255 ≈ 1.4e6,
        // and t = Σ_j s_j ≤ 347·1.4e6 ≈ 4.9e8.
        let mut col = [0u32; 16];
        let mut s: u32 = 0; // running byte sum within the chunk
        let mut t: u32 = 0; // Σ of `s` sampled after each block
        let mut nblocks: u64 = 0;
        let mut blocks = chunk.chunks_exact(16);
        for blk in blocks.by_ref() {
            for (c, &x) in col.iter_mut().zip(blk) {
                *c += u32::from(x);
            }
            s += blk.iter().map(|&x| u32::from(x)).sum::<u32>();
            t += s;
            nblocks += 1;
        }
        let mut si: u64 = 16 * (nblocks * u64::from(s) - u64::from(t));
        for (k, &c) in col.iter().enumerate() {
            si += k as u64 * u64::from(c);
        }
        let mut sum = u64::from(s);
        for (j, &x) in blocks.remainder().iter().enumerate() {
            si += (nblocks * 16 + j as u64) * u64::from(x);
            sum += u64::from(x);
        }
        // Each d_i appears in (n - i) of the chunk's partial sums, so
        // the chunk's contribution to `b` is n·a + Σ(n-i)·d_i, and
        // Σ(n-i)·d_i = n·sum - si (non-negative: si ≤ (n-1)·sum).
        b = (b + n * a + n * sum - si) % MOD;
        a = (a + sum) % MOD;
    }
    ((b as u32) << 16) | a as u32
}

/// The original byte-at-a-time Adler-32, kept as the identity-gate
/// reference and the `hotpath` bench baseline.
#[doc(hidden)]
pub fn adler32_scalar(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

// -------------------------------------------------------------------
// DEFLATE (fixed Huffman) with LZ77 hash-chain matcher
// -------------------------------------------------------------------

/// Bit-reversed bytes: `REV8[b]` is `b` with its eight bits mirrored.
/// Two lookups reverse a 16-bit code, replacing the per-bit loop in the
/// Huffman emit path.
const REV8: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut x = i as u8;
        x = x.rotate_left(4);
        x = ((x & 0xCC) >> 2) | ((x & 0x33) << 2);
        x = ((x & 0xAA) >> 1) | ((x & 0x55) << 1);
        table[i] = x;
        i += 1;
    }
    table
};

struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    bit_buf: u32,
    bit_count: u32,
    /// `true` routes [`BitWriter::write_code`] through the original
    /// per-bit reversal loop instead of the [`REV8`] table.
    scalar: bool,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>, scalar: bool) -> Self {
        BitWriter {
            out,
            bit_buf: 0,
            bit_count: 0,
            scalar,
        }
    }

    /// Writes `n` bits LSB-first (deflate's "data element" order).
    fn write_bits(&mut self, value: u32, n: u32) {
        self.bit_buf |= value << self.bit_count;
        self.bit_count += n;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code: bits go out MSB-of-code first. Fixed
    /// Huffman codes are at most 9 bits, so reversing the low 16 bits
    /// of `code` and shifting right by `16 - n` mirrors exactly the
    /// `n` bits that matter.
    fn write_code(&mut self, code: u32, n: u32) {
        let reversed = if self.scalar {
            let mut r = 0u32;
            for i in 0..n {
                if code & (1 << i) != 0 {
                    r |= 1 << (n - 1 - i);
                }
            }
            r
        } else {
            let mirrored = ((REV8[(code & 0xFF) as usize] as u32) << 8)
                | REV8[((code >> 8) & 0xFF) as usize] as u32;
            mirrored >> (16 - n)
        };
        self.write_bits(reversed, n);
    }

    fn flush(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }
}

/// Length code table: (code, extra_bits, base_length).
const LENGTH_CODES: [(u32, u32, u32); 29] = [
    (257, 0, 3),
    (258, 0, 4),
    (259, 0, 5),
    (260, 0, 6),
    (261, 0, 7),
    (262, 0, 8),
    (263, 0, 9),
    (264, 0, 10),
    (265, 1, 11),
    (266, 1, 13),
    (267, 1, 15),
    (268, 1, 17),
    (269, 2, 19),
    (270, 2, 23),
    (271, 2, 27),
    (272, 2, 31),
    (273, 3, 35),
    (274, 3, 43),
    (275, 3, 51),
    (276, 3, 59),
    (277, 4, 67),
    (278, 4, 83),
    (279, 4, 99),
    (280, 4, 115),
    (281, 5, 131),
    (282, 5, 163),
    (283, 5, 195),
    (284, 5, 227),
    (285, 0, 258),
];

/// Distance code table: (code, extra_bits, base_distance).
const DIST_CODES: [(u32, u32, u32); 30] = [
    (0, 0, 1),
    (1, 0, 2),
    (2, 0, 3),
    (3, 0, 4),
    (4, 1, 5),
    (5, 1, 7),
    (6, 2, 9),
    (7, 2, 13),
    (8, 3, 17),
    (9, 3, 25),
    (10, 4, 33),
    (11, 4, 49),
    (12, 5, 65),
    (13, 5, 97),
    (14, 6, 129),
    (15, 6, 193),
    (16, 7, 257),
    (17, 7, 385),
    (18, 8, 513),
    (19, 8, 769),
    (20, 9, 1025),
    (21, 9, 1537),
    (22, 10, 2049),
    (23, 10, 3073),
    (24, 11, 4097),
    (25, 11, 6145),
    (26, 12, 8193),
    (27, 12, 12289),
    (28, 13, 16385),
    (29, 13, 24577),
];

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Emits one fixed-Huffman deflate block containing all of `data`.
///
/// `scalar` selects the per-byte match extension and per-bit code
/// reversal; the fast path extends matches a word at a time with
/// [`swar::common_prefix_len`]. Both produce the same bitstream.
fn deflate_fixed(data: &[u8], out: &mut Vec<u8>, scalar: bool) {
    let mut writer = BitWriter::new(out, scalar);
    writer.write_bits(1, 1); // BFINAL
    writer.write_bits(1, 2); // BTYPE=01 fixed Huffman

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len().max(1)];

    let hashable_end = data.len().saturating_sub(MIN_MATCH - 1);
    let mut i = 0;
    while i < data.len() {
        // Search the hash chain for the longest match behind `i`.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i < hashable_end {
            let h = hash3(data, i);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate != usize::MAX && i - candidate <= WINDOW && chain < MAX_CHAIN {
                let limit = (data.len() - i).min(MAX_MATCH);
                let len = if scalar {
                    let mut len = 0usize;
                    while len < limit && data[candidate + len] == data[i + len] {
                        len += 1;
                    }
                    len
                } else {
                    // The slices may overlap (run matches with small
                    // distance); that only means the comparison reads
                    // the same bytes twice, which is exactly what the
                    // byte loop does.
                    swar::common_prefix_len(
                        &data[candidate..candidate + limit],
                        &data[i..i + limit],
                    )
                };
                if len > best_len {
                    best_len = len;
                    best_dist = i - candidate;
                    if len >= MAX_MATCH {
                        break;
                    }
                }
                candidate = prev[candidate];
                chain += 1;
            }
        }
        let take = if best_len >= MIN_MATCH {
            emit_match(&mut writer, best_len as u32, best_dist as u32);
            best_len
        } else {
            emit_literal(&mut writer, data[i]);
            1
        };
        // Register every covered position in the hash chains so later
        // matches can point into this region. (Indexing two arrays in
        // lockstep; an iterator form would obscure it.)
        #[allow(clippy::needless_range_loop)]
        for j in i..(i + take).min(hashable_end) {
            let hj = hash3(data, j);
            prev[j] = head[hj];
            head[hj] = j;
        }
        i += take;
    }
    emit_symbol(&mut writer, 256); // end of block
    writer.flush();
}

fn emit_literal(writer: &mut BitWriter<'_>, byte: u8) {
    emit_symbol(writer, byte as u32);
}

/// Writes a literal/length symbol with the fixed Huffman code.
fn emit_symbol(writer: &mut BitWriter<'_>, symbol: u32) {
    match symbol {
        0..=143 => writer.write_code(0x30 + symbol, 8),
        144..=255 => writer.write_code(0x190 + symbol - 144, 9),
        256..=279 => writer.write_code(symbol - 256, 7),
        _ => writer.write_code(0xC0 + symbol - 280, 8),
    }
}

fn emit_match(writer: &mut BitWriter<'_>, length: u32, distance: u32) {
    let (code, extra, base) = *LENGTH_CODES
        .iter()
        .rev()
        .find(|(_, _, b)| *b <= length)
        .expect("length >= 3");
    emit_symbol(writer, code);
    if extra > 0 {
        writer.write_bits(length - base, extra);
    }
    let (dcode, dextra, dbase) = *DIST_CODES
        .iter()
        .rev()
        .find(|(_, _, b)| *b <= distance)
        .expect("distance >= 1");
    writer.write_code(dcode, 5);
    if dextra > 0 {
        writer.write_bits(distance - dbase, dextra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Color;

    /// A test-only inflater for fixed-Huffman streams, written
    /// independently from the encoder so the round-trip test means
    /// something.
    fn inflate_fixed(mut bits: BitReader<'_>) -> Vec<u8> {
        let bfinal = bits.read_bits(1);
        assert_eq!(bfinal, 1);
        let btype = bits.read_bits(2);
        assert_eq!(btype, 1, "fixed Huffman expected");
        let mut out = Vec::new();
        loop {
            let sym = read_fixed_symbol(&mut bits);
            match sym {
                0..=255 => out.push(sym as u8),
                256 => break,
                _ => {
                    let (_, extra, base) = LENGTH_CODES
                        .iter()
                        .find(|(c, _, _)| *c == sym)
                        .copied()
                        .unwrap();
                    let length = base + bits.read_bits(extra);
                    let dcode = bits.read_code(5);
                    let (_, dextra, dbase) = DIST_CODES
                        .iter()
                        .find(|(c, _, _)| *c == dcode)
                        .copied()
                        .unwrap();
                    let dist = (dbase + bits.read_bits(dextra)) as usize;
                    let start = out.len() - dist;
                    for k in 0..length as usize {
                        let byte = out[start + k];
                        out.push(byte);
                    }
                }
            }
        }
        out
    }

    fn read_fixed_symbol(bits: &mut BitReader<'_>) -> u32 {
        // Read 7 bits first (MSB-first code space).
        let mut code = bits.read_code(7);
        if code <= 0x17 {
            return code + 256;
        }
        code = (code << 1) | bits.read_bits(1);
        if (0x30..=0xBF).contains(&code) {
            return code - 0x30;
        }
        if (0xC0..=0xC7).contains(&code) {
            return code - 0xC0 + 280;
        }
        code = (code << 1) | bits.read_bits(1);
        assert!((0x190..=0x1FF).contains(&code), "bad code {code:#x}");
        code - 0x190 + 144
    }

    struct BitReader<'a> {
        data: &'a [u8],
        pos: usize,
        bit: u32,
    }

    impl<'a> BitReader<'a> {
        fn new(data: &'a [u8]) -> Self {
            BitReader {
                data,
                pos: 0,
                bit: 0,
            }
        }

        fn read_bits(&mut self, n: u32) -> u32 {
            let mut v = 0;
            for i in 0..n {
                let byte = self.data[self.pos];
                let bit = (byte >> self.bit) & 1;
                v |= (bit as u32) << i;
                self.bit += 1;
                if self.bit == 8 {
                    self.bit = 0;
                    self.pos += 1;
                }
            }
            v
        }

        /// Reads a Huffman code MSB-first.
        fn read_code(&mut self, n: u32) -> u32 {
            let mut v = 0;
            for _ in 0..n {
                v = (v << 1) | self.read_bits(1);
            }
            v
        }
    }

    fn roundtrip(data: &[u8]) {
        let z = zlib_compress(data);
        assert_eq!(z[0], 0x78);
        assert_eq!((z[0] as u32 * 256 + z[1] as u32) % 31, 0);
        let body = &z[2..z.len() - 4];
        let decoded = inflate_fixed(BitReader::new(body));
        assert_eq!(decoded, data, "roundtrip failed for {} bytes", data.len());
        let stored_adler = u32::from_be_bytes(z[z.len() - 4..].try_into().unwrap());
        assert_eq!(stored_adler, adler32(data));
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn roundtrip_repetitive() {
        roundtrip(&vec![0u8; 10_000]);
        roundtrip(b"abcabcabcabcabcabcabcabc");
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.push((i % 7) as u8);
        }
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_pseudorandom() {
        // Deterministic xorshift noise — worst case for LZ77.
        let mut state = 0x12345678u32;
        let mut data = Vec::with_capacity(4096);
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            data.push(state as u8);
        }
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        roundtrip(&data);
    }

    #[test]
    fn flat_data_compresses_hard() {
        let data = vec![0xABu8; 100_000];
        let z = zlib_compress(&data);
        assert!(z.len() < 2_000, "100 KB of runs -> {} bytes", z.len());
    }

    #[test]
    fn crc32_known_vectors() {
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
        let mut c = Crc32::new();
        c.update(b"");
        assert_eq!(c.finish(), 0);
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        msite_support::prop::check("crc32 table vs bitwise", 200, 0x9E37_79B9, |g| {
            let data = g.vec(0, 300, |g| g.u8());
            // Split the feed at an arbitrary point so chunk remainders
            // and resumed state both get exercised.
            let split = g.range_usize(0, data.len() + 1);
            let mut fast = Crc32::new();
            fast.update(&data[..split]);
            fast.update(&data[split..]);
            let mut slow = Crc32::new();
            slow.update_bitwise(&data);
            assert_eq!(fast.finish(), slow.finish());
        });
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32_scalar(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn adler32_fast_matches_scalar() {
        msite_support::prop::check("adler32 unrolled vs scalar", 120, 0x0B11_0002, |g| {
            // Long enough to cross the 5552-byte overflow chunk and
            // leave word remainders of every phase.
            let data = g.vec(0, 9_000, |g| g.u8());
            assert_eq!(adler32(&data), adler32_scalar(&data));
        });
    }

    #[test]
    fn zlib_fast_and_scalar_are_byte_identical() {
        msite_support::prop::check("zlib swar/scalar identity", 80, 0x0B11_0001, |g| {
            // Alternate run-heavy and noisy segments: runs exercise
            // overlapping match extension (distance < length), noise
            // exercises the literal path and short matches.
            let mut data = Vec::new();
            for _ in 0..g.range_usize(0, 6) {
                if g.bool() {
                    let byte = g.u8();
                    let n = g.range_usize(1, 600);
                    data.resize(data.len() + n, byte);
                } else {
                    for _ in 0..g.range_usize(1, 300) {
                        data.push(g.u8());
                    }
                }
            }
            assert_eq!(
                zlib_compress(&data),
                zlib_compress_scalar(&data),
                "{} bytes diverged",
                data.len()
            );
        });
    }

    #[test]
    fn png_structure_valid() {
        let mut canvas = Canvas::new(32, 16, Color::WHITE);
        canvas.fill_rect_px(0, 0, 16, 16, Color::rgb(10, 20, 30));
        let bytes = encode(&canvas);
        assert_eq!(
            &bytes[..8],
            &[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']
        );
        // Walk the chunks, verifying lengths and CRCs.
        let mut pos = 8;
        let mut kinds = Vec::new();
        while pos < bytes.len() {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = &bytes[pos + 4..pos + 8];
            let data = &bytes[pos + 8..pos + 8 + len];
            let stored =
                u32::from_be_bytes(bytes[pos + 8 + len..pos + 12 + len].try_into().unwrap());
            let mut crc = Crc32::new();
            crc.update(kind);
            crc.update(data);
            assert_eq!(crc.finish(), stored);
            kinds.push(kind.to_vec());
            pos += 12 + len;
        }
        assert_eq!(
            kinds,
            vec![b"IHDR".to_vec(), b"IDAT".to_vec(), b"IEND".to_vec()]
        );
    }

    #[test]
    fn png_idat_decompresses_to_scanlines() {
        let canvas = Canvas::new(8, 4, Color::rgb(1, 2, 3));
        let bytes = encode(&canvas);
        // Extract IDAT payload.
        let idat_pos = bytes.windows(4).position(|w| w == b"IDAT").unwrap();
        let len = u32::from_be_bytes(bytes[idat_pos - 4..idat_pos].try_into().unwrap()) as usize;
        let z = &bytes[idat_pos + 4..idat_pos + 4 + len];
        let raw = inflate_fixed(BitReader::new(&z[2..]));
        assert_eq!(raw.len(), 4 * (1 + 8 * 3));
        assert_eq!(raw[0], 0); // filter byte
        assert_eq!(&raw[1..4], &[1, 2, 3]);
    }
}
