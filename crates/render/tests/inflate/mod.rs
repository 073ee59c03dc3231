//! A test-only inflater for the encoder's fixed-Huffman streams, written
//! independently from the encoder (with its own code tables) so a round
//! trip through it means something. The crate's unit tests include it
//! by path.

/// Base length and extra bits of length symbols 257..=285 (RFC 1951
/// §3.2.5).
#[rustfmt::skip]
const LENGTHS: [(u32, u32); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1), (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3), (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5), (258, 0),
];

/// Base distance and extra bits of distance codes 0..=29.
#[rustfmt::skip]
const DISTANCES: [(u32, u32); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4), (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8), (1025, 9), (1537, 9),
    (2049, 10), (3073, 10), (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// Inflates one final fixed-Huffman deflate block.
pub fn inflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut bits = BitReader {
        data,
        pos: 0,
        bit: 0,
    };
    assert_eq!(bits.read_bits(1), 1, "final block expected");
    assert_eq!(bits.read_bits(2), 1, "fixed Huffman expected");
    let mut out = Vec::new();
    loop {
        let sym = read_fixed_symbol(&mut bits);
        match sym {
            0..=255 => out.push(sym as u8),
            256 => break,
            _ => {
                let (base, extra) = LENGTHS[(sym - 257) as usize];
                let length = base + bits.read_bits(extra);
                let (dbase, dextra) = DISTANCES[bits.read_code(5) as usize];
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

/// Inflates a zlib stream after checking its header, returning the
/// payload and the stored Adler-32.
pub fn inflate_zlib(z: &[u8]) -> (Vec<u8>, u32) {
    assert_eq!(z[0], 0x78);
    assert_eq!((z[0] as u32 * 256 + z[1] as u32) % 31, 0);
    let adler = u32::from_be_bytes(z[z.len() - 4..].try_into().unwrap());
    (inflate_fixed(&z[2..z.len() - 4]), adler)
}

/// The inflated image data of a PNG: its filtered scanlines.
pub fn png_scanlines(png: &[u8]) -> Vec<u8> {
    let idat = png.windows(4).position(|w| w == b"IDAT").unwrap();
    let len = u32::from_be_bytes(png[idat - 4..idat].try_into().unwrap()) as usize;
    inflate_zlib(&png[idat + 4..idat + 4 + len]).0
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

impl BitReader<'_> {
    fn read_bits(&mut self, n: u32) -> u32 {
        let mut v = 0;
        for i in 0..n {
            let bit = (self.data[self.pos] >> self.bit) & 1;
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
