//! PNG encoding with a from-scratch DEFLATE compressor.
//!
//! The snapshot attribute's whole point is shipping a *small* image to the
//! device, so the encoder compresses for real: LZ77 with hash-chain match
//! search over a 32 KiB window, emitted with the fixed Huffman codes of
//! RFC 1951, wrapped in zlib (RFC 1950) and PNG chunks. Synthetic page
//! renders are dominated by flat runs, which this compresses by 50–200×.
//!
//! The encoder streams: [`Encoder`] takes one scanline at a time and
//! holds only the LZ77 window, its hash chains and the output, never the
//! raw image. Because the stream length is declared up front, every
//! match decision sees exactly the bytes a whole-buffer compressor
//! would, so the output does not depend on how the rows arrive.

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
    let mut encoder = Encoder::new(canvas.width(), canvas.height());
    for row in canvas.pixels().chunks_exact(canvas.width() as usize * 3) {
        encoder.push_row(row);
    }
    encoder.finish()
}

/// A streaming truecolor PNG encoder: declare the size, push RGB8
/// scanlines top to bottom, then [`finish`](Encoder::finish). The image
/// is one IDAT chunk whose length and CRC are patched in at the end.
///
/// # Examples
///
/// ```
/// use msite_render::{Canvas, Color, png};
///
/// let canvas = Canvas::new(3, 2, Color::rgb(10, 20, 30));
/// let mut encoder = png::Encoder::new(3, 2);
/// encoder.push_row(&[10, 20, 30].repeat(3));
/// encoder.push_row(&[10, 20, 30].repeat(3));
/// assert_eq!(encoder.finish(), png::encode(&canvas));
/// ```
pub struct Encoder {
    row_bytes: usize,
    rows_left: u32,
    out: Vec<u8>,
    /// Offset of the IDAT chunk's length field in `out`.
    idat: usize,
    zlib: Zlib,
}

impl Encoder {
    /// Starts a `width` × `height` image.
    pub fn new(width: u32, height: u32) -> Encoder {
        let row_bytes = width as usize * 3;
        let mut out = Vec::new();
        out.extend_from_slice(&[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']);
        let mut ihdr = Vec::with_capacity(13);
        ihdr.extend_from_slice(&width.to_be_bytes());
        ihdr.extend_from_slice(&height.to_be_bytes());
        ihdr.extend_from_slice(&[8, 2, 0, 0, 0]); // depth 8, color RGB
        write_chunk(&mut out, b"IHDR", &ihdr);
        let idat = out.len();
        out.extend_from_slice(&[0, 0, 0, 0]);
        out.extend_from_slice(b"IDAT");
        // Each scanline is prefixed with filter type 0 (None).
        let zlib = Zlib::new(height as usize * (1 + row_bytes), &mut out);
        Encoder {
            row_bytes,
            rows_left: height,
            out,
            idat,
            zlib,
        }
    }

    /// Appends the next scanline: `3 × width` RGB bytes.
    ///
    /// # Panics
    ///
    /// Panics on a row of the wrong length or past the declared height.
    pub fn push_row(&mut self, row: &[u8]) {
        assert_eq!(row.len(), self.row_bytes, "scanline length");
        assert!(
            self.rows_left > 0,
            "more scanlines than the declared height"
        );
        self.rows_left -= 1;
        self.zlib.write(&[0], &mut self.out);
        self.zlib.write(row, &mut self.out);
    }

    /// Completes the stream and returns the PNG bytes.
    ///
    /// # Panics
    ///
    /// Panics when fewer rows than the declared height were pushed.
    pub fn finish(mut self) -> Vec<u8> {
        assert_eq!(
            self.rows_left, 0,
            "fewer scanlines than the declared height"
        );
        self.zlib.finish(&mut self.out);
        let len = (self.out.len() - self.idat - 8) as u32;
        self.out[self.idat..self.idat + 4].copy_from_slice(&len.to_be_bytes());
        let mut crc = Crc32::new();
        crc.update(&self.out[self.idat + 4..]);
        let crc = crc.finish();
        self.out.extend_from_slice(&crc.to_be_bytes());
        write_chunk(&mut self.out, b"IEND", &[]);
        // The bytes outlive the encode in caches; drop the growth slack.
        self.out.shrink_to_fit();
        self.out
    }
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
    let mut out = Vec::new();
    let mut zlib = Zlib::new(data.len(), &mut out);
    zlib.write(data, &mut out);
    zlib.finish(&mut out);
    out
}

/// A zlib stream of a declared length: header, one deflate block and
/// the Adler-32 trailer, appended to the caller's buffer as input
/// arrives.
struct Zlib {
    deflate: Deflater,
    adler: Adler32,
}

impl Zlib {
    fn new(total: usize, out: &mut Vec<u8>) -> Zlib {
        out.extend_from_slice(&[0x78, 0x9C]); // CMF/FLG, (0x789C % 31 == 0)
        Zlib {
            deflate: Deflater::new(total),
            adler: Adler32::new(),
        }
    }

    fn write(&mut self, data: &[u8], out: &mut Vec<u8>) {
        self.adler.update(data);
        self.deflate.write(data, out);
    }

    fn finish(self, out: &mut Vec<u8>) {
        self.deflate.finish(out);
        out.extend_from_slice(&self.adler.finish().to_be_bytes());
    }
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
/// # Examples
///
/// ```
/// assert_eq!(msite_render::png::adler32(b"Wikipedia"), 0x11E6_0398);
/// ```
pub fn adler32(data: &[u8]) -> u32 {
    let mut adler = Adler32::new();
    adler.update(data);
    adler.finish()
}

/// Running Adler-32 state, both sums reduced modulo 65521 between
/// updates, so any split of the input gives the same checksum.
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
struct Adler32 {
    a: u64,
    b: u64,
}

impl Adler32 {
    const MOD: u64 = 65_521;

    fn new() -> Adler32 {
        Adler32 { a: 1, b: 0 }
    }

    fn update(&mut self, data: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        for chunk in data.chunks(5552) {
            let n = chunk.len() as u64;
            // Split the chunk into 16-byte blocks and decompose
            // Σi·dᵢ = 16·Σ_b b·S_b + Σ_k k·C_k, where S_b is block b's
            // sum and C_k is the column sum of lane k across blocks.
            // Column sums are plain lane-wise adds (vectorizable on
            // baseline SSE2, which has no 32-bit vector multiply), and
            // Σ_b b·S_b comes out of Abel summation — B·s − Σ_j s_j — so
            // the hot loop contains no multiplies at all. All
            // accumulators stay in u32: over one chunk, C_k ≤ 347·255,
            // s ≤ 5552·255 ≈ 1.4e6, and t = Σ_j s_j ≤ 347·1.4e6 ≈ 4.9e8.
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
            b = (b + n * a + n * sum - si) % Self::MOD;
            a = (a + sum) % Self::MOD;
        }
        (self.a, self.b) = (a, b);
    }

    fn finish(&self) -> u32 {
        ((self.b as u32) << 16) | self.a as u32
    }
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
/// Two lookups reverse a 16-bit code for the Huffman emit path.
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

/// Pending output bits; whole bytes go to the caller's buffer.
struct BitWriter {
    bit_buf: u32,
    bit_count: u32,
}

impl BitWriter {
    /// Writes `n` bits LSB-first (deflate's "data element" order).
    fn write_bits(&mut self, out: &mut Vec<u8>, value: u32, n: u32) {
        self.bit_buf |= value << self.bit_count;
        self.bit_count += n;
        while self.bit_count >= 8 {
            out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code: bits go out MSB-of-code first. Fixed
    /// Huffman codes are at most 9 bits, so reversing the low 16 bits
    /// of `code` and shifting right by `16 - n` mirrors exactly the
    /// `n` bits that matter.
    fn write_code(&mut self, out: &mut Vec<u8>, code: u32, n: u32) {
        let mirrored = ((REV8[(code & 0xFF) as usize] as u32) << 8)
            | REV8[((code >> 8) & 0xFF) as usize] as u32;
        self.write_bits(out, mirrored >> (16 - n), n);
    }

    fn flush(&mut self, out: &mut Vec<u8>) {
        if self.bit_count > 0 {
            out.push((self.bit_buf & 0xFF) as u8);
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

/// Index of the last entry of `codes` whose base does not exceed
/// `value`: the code that carries `value`.
const fn slot_of(codes: &[(u32, u32, u32)], value: usize) -> u8 {
    let mut slot = 0;
    while slot + 1 < codes.len() && codes[slot + 1].2 as usize <= value {
        slot += 1;
    }
    slot as u8
}

/// The [`LENGTH_CODES`] entry of every match length (3..=258).
const LENGTH_SLOT: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        table[len] = slot_of(&LENGTH_CODES, len);
        len += 1;
    }
    table
};

/// The [`DIST_CODES`] entry of every distance, indexed by
/// [`dist_slot_index`]: distances up to 256 one by one, longer ones by
/// 128-wide buckets (every base above 256 is `128·k + 1`).
const DIST_SLOT: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut i = 0;
    while i < 512 {
        // The smallest distance that maps to index `i`.
        let d = if i < 256 { i + 1 } else { ((i - 256) << 7) + 1 };
        table[i] = slot_of(&DIST_CODES, d);
        i += 1;
    }
    table
};

fn dist_slot_index(distance: usize) -> usize {
    if distance <= 256 {
        distance - 1
    } else {
        256 + ((distance - 1) >> 7)
    }
}

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;
/// Bytes at and after a position that coding it may read: a full match,
/// plus the last two bytes hashed when the match's final position is
/// registered.
const LOOKAHEAD: usize = MAX_MATCH + MIN_MATCH - 1;
/// Chain links kept. The search follows only candidates at most
/// [`WINDOW`] behind the position being coded, and a link is overwritten
/// only when a position `RING` later is registered, so every link the
/// search reads is intact.
const RING: usize = 2 * WINDOW;
/// Largest input slice appended to the window at once.
const PIECE: usize = 16 * 1024;
const NONE: u32 = u32::MAX;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// One fixed-Huffman deflate block over a stream of `total` bytes that
/// arrives in arbitrary slices.
///
/// Position `i` is coded once `min(total, i + LOOKAHEAD)` bytes have
/// arrived, so its match search sees the same bytes, the same match
/// limit and the same hash chains as a search over the whole input:
/// the bitstream is independent of the slicing. Memory is the window
/// (at most four 32 KiB windows behind the next position, plus the
/// unread input), the hash heads and the [`RING`] of chain links.
struct Deflater {
    total: usize,
    /// Bytes received so far.
    received: usize,
    /// Next position to code.
    pos: usize,
    /// Stream position of `window[0]`.
    base: usize,
    window: Vec<u8>,
    head: Vec<u32>,
    prev: Vec<u32>,
    bits: BitWriter,
}

impl Deflater {
    fn new(total: usize) -> Deflater {
        assert!(total < NONE as usize, "deflate input of {total} bytes");
        let mut bits = BitWriter {
            bit_buf: 0,
            bit_count: 0,
        };
        // BFINAL=1 and BTYPE=01 (fixed Huffman) stay in the bit buffer
        // until the first whole byte is written.
        bits.bit_buf = 1 | (1 << 1);
        bits.bit_count = 3;
        Deflater {
            total,
            received: 0,
            pos: 0,
            base: 0,
            window: Vec::new(),
            head: vec![NONE; 1 << HASH_BITS],
            // Slots are written before they are read; zeroed memory
            // only keeps the buffer initialized.
            prev: vec![0; RING.min(total.max(1))],
            bits,
        }
    }

    fn write(&mut self, data: &[u8], out: &mut Vec<u8>) {
        assert!(
            data.len() <= self.total - self.received,
            "more input than the declared stream length"
        );
        for piece in data.chunks(PIECE) {
            // Drop what no future match can reach, a few windows at a
            // time.
            let keep_from = self.pos.saturating_sub(WINDOW);
            if keep_from - self.base >= 3 * WINDOW {
                self.window.drain(..keep_from - self.base);
                self.base = keep_from;
            }
            self.window.extend_from_slice(piece);
            self.received += piece.len();
            self.code(out);
        }
    }

    /// Codes every position whose lookahead has arrived.
    fn code(&mut self, out: &mut Vec<u8>) {
        let n = self.total;
        let ready = if self.received == n {
            n
        } else {
            (self.received + 1).saturating_sub(LOOKAHEAD)
        };
        let hashable_end = n.saturating_sub(MIN_MATCH - 1);
        let base = self.base;
        let Deflater {
            window,
            head,
            prev,
            bits,
            ..
        } = self;
        let mut i = self.pos;
        while i < ready {
            // Search the hash chain for the longest match behind `i`.
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i < hashable_end {
                let limit = (n - i).min(MAX_MATCH);
                let here = &window[i - base..i - base + limit];
                let mut candidate = head[hash3(window, i - base)];
                let mut chain = 0;
                while candidate != NONE && i - candidate as usize <= WINDOW && chain < MAX_CHAIN {
                    let c = candidate as usize;
                    // The slices may overlap (run matches with a small
                    // distance); the comparison just reads those bytes
                    // twice.
                    let len = swar::common_prefix_len(&window[c - base..c - base + limit], here);
                    if len > best_len {
                        best_len = len;
                        best_dist = i - c;
                        if len >= MAX_MATCH {
                            break;
                        }
                    }
                    candidate = prev[c % RING];
                    chain += 1;
                }
            }
            let take = if best_len >= MIN_MATCH {
                emit_match(bits, out, best_len, best_dist);
                best_len
            } else {
                emit_symbol(bits, out, window[i - base] as u32);
                1
            };
            // Register every covered position in the hash chains so
            // later matches can point into this region.
            for j in i..(i + take).min(hashable_end) {
                let h = hash3(window, j - base);
                prev[j % RING] = head[h];
                head[h] = j as u32;
            }
            i += take;
        }
        self.pos = i;
    }

    fn finish(mut self, out: &mut Vec<u8>) {
        assert_eq!(
            self.received, self.total,
            "less input than the declared stream length"
        );
        self.code(out);
        emit_symbol(&mut self.bits, out, 256); // end of block
        self.bits.flush(out);
    }
}

/// Writes a literal/length symbol with the fixed Huffman code.
fn emit_symbol(bits: &mut BitWriter, out: &mut Vec<u8>, symbol: u32) {
    match symbol {
        0..=143 => bits.write_code(out, 0x30 + symbol, 8),
        144..=255 => bits.write_code(out, 0x190 + symbol - 144, 9),
        256..=279 => bits.write_code(out, symbol - 256, 7),
        _ => bits.write_code(out, 0xC0 + symbol - 280, 8),
    }
}

fn emit_match(bits: &mut BitWriter, out: &mut Vec<u8>, length: usize, distance: usize) {
    let (code, extra, base) = LENGTH_CODES[LENGTH_SLOT[length] as usize];
    emit_symbol(bits, out, code);
    if extra > 0 {
        bits.write_bits(out, length as u32 - base, extra);
    }
    let (dcode, dextra, dbase) = DIST_CODES[DIST_SLOT[dist_slot_index(distance)] as usize];
    bits.write_code(out, dcode, 5);
    if dextra > 0 {
        bits.write_bits(out, distance as u32 - dbase, dextra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Color;
    use crate::inflate::{inflate_zlib, png_scanlines};

    fn roundtrip(data: &[u8]) {
        let (decoded, stored_adler) = inflate_zlib(&zlib_compress(data));
        assert_eq!(decoded, data, "roundtrip failed for {} bytes", data.len());
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
            // A running checksum fed in two slices agrees.
            let split = g.range_usize(0, data.len() + 1);
            let mut running = Adler32::new();
            running.update(&data[..split]);
            running.update(&data[split..]);
            assert_eq!(running.finish(), adler32_scalar(&data));
        });
    }

    #[test]
    fn code_tables_match_the_rfc_ranges() {
        // Every length and distance maps to the last table entry whose
        // base does not exceed it, and its extra bits cover the rest.
        for length in MIN_MATCH..=MAX_MATCH {
            let (_, extra, base) = LENGTH_CODES[LENGTH_SLOT[length] as usize];
            let reference = LENGTH_CODES
                .iter()
                .rev()
                .find(|(_, _, b)| *b as usize <= length)
                .unwrap();
            assert_eq!((extra, base), (reference.1, reference.2), "length {length}");
            assert!(length as u32 - base < 1 << extra || length == MAX_MATCH);
        }
        for distance in 1..=WINDOW {
            let entry = DIST_CODES[DIST_SLOT[dist_slot_index(distance)] as usize];
            let reference = DIST_CODES
                .iter()
                .rev()
                .find(|(_, _, b)| *b as usize <= distance)
                .unwrap();
            assert_eq!(entry, *reference, "distance {distance}");
            assert!(distance as u32 - entry.2 < 1 << entry.1);
        }
    }

    #[test]
    fn stream_slicing_does_not_change_the_bytes() {
        msite_support::prop::check("zlib slicing invariance", 60, 0x0B11_0003, |g| {
            // Runs exercise long and overlapping matches, noise the
            // literal path; lengths past 64 KiB wrap the chain ring.
            let mut data = Vec::new();
            for _ in 0..g.range_usize(0, 8) {
                if g.bool() {
                    let byte = g.u8();
                    let n = g.range_usize(1, 30_000);
                    data.resize(data.len() + n, byte);
                } else {
                    for _ in 0..g.range_usize(1, 3_000) {
                        data.push(g.u8());
                    }
                }
            }
            let whole = zlib_compress(&data);
            let mut out = Vec::new();
            let mut zlib = Zlib::new(data.len(), &mut out);
            let mut rest = &data[..];
            while !rest.is_empty() {
                let take = g.range_usize(1, 700).min(rest.len());
                zlib.write(&rest[..take], &mut out);
                rest = &rest[take..];
            }
            zlib.finish(&mut out);
            assert_eq!(out, whole, "{} bytes diverged", data.len());
            assert_eq!(inflate_zlib(&whole).0, data);
        });
    }

    #[test]
    #[should_panic(expected = "fewer scanlines")]
    fn encoder_rejects_a_short_image() {
        let mut encoder = Encoder::new(2, 2);
        encoder.push_row(&[0; 6]);
        let _ = encoder.finish();
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
        let raw = png_scanlines(&encode(&canvas));
        assert_eq!(raw.len(), 4 * (1 + 8 * 3));
        assert_eq!(raw[0], 0); // filter byte
        assert_eq!(&raw[1..4], &[1, 2, 3]);
    }
}
