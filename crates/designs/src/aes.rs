//! AES-128 cipher core (paper Table 1, row 6).
//!
//! Modelled on the OpenTitan unmasked AES cipher core's timing shape: an
//! iterative datapath performing one round per cycle with on-the-fly key
//! expansion, so a block takes a number of cycles proportional to the
//! round count — dynamic latency, which is exactly what defeats
//! static-only timing contracts.
//!
//! Following the paper's own methodology ("we used the baseline S-box IP"),
//! the S-box is *foreign IP*: an `extern fn` backed by a LUT module
//! ([`sbox_module`]) shared verbatim by the Anvil version and the
//! handwritten baseline. Everything else — ShiftRows, MixColumns, key
//! schedule, the round FSM — is written in each language.
//!
//! The Anvil round expressions are generated programmatically (ShiftRows
//! indexing and the GF(2^8) xtime identity are too repetitive to write by
//! hand), which doubles as a demonstration of source-level
//! metaprogramming over the HDL.

use anvil_core::Session;
use anvil_rtl::{Bits, Expr, Module};

/// The AES S-box.
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The S-box as a LUT ROM module (`in0[8] -> out[8]`): the shared foreign
/// IP, like the paper's LUT-mapped OpenTitan S-box.
pub fn sbox_module() -> Module {
    let mut m = Module::new("sbox");
    let a = m.input("in0", 8);
    let y = m.output("out", 8);
    let rom = m.array_init(
        "rom",
        8,
        256,
        SBOX.iter().map(|b| Bits::from_u64(*b as u64, 8)).collect(),
    );
    m.assign(
        y,
        Expr::ArrayRead {
            array: rom,
            index: Box::new(Expr::Signal(a)),
        },
    );
    m
}

// ---------------------------------------------------------------------
// Reference implementation (FIPS-197), used by the tests.
// ---------------------------------------------------------------------

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (if x & 0x80 != 0 { 0x1b } else { 0 })
}

/// Reference AES-128 block encryption.
pub fn aes128_encrypt_ref(key: [u8; 16], pt: [u8; 16]) -> [u8; 16] {
    let mut rk = key;
    let mut s = pt;
    for i in 0..16 {
        s[i] ^= rk[i];
    }
    let mut rcon: u8 = 1;
    for round in 1..=10 {
        // SubBytes + ShiftRows (bytes are column-major: s[r + 4c]).
        let mut t = [0u8; 16];
        for c in 0..4 {
            for r in 0..4 {
                t[r + 4 * c] = SBOX[s[r + 4 * ((c + r) % 4)] as usize];
            }
        }
        // MixColumns (skipped in the final round).
        let mut mx = t;
        if round != 10 {
            for c in 0..4 {
                let col = &t[4 * c..4 * c + 4];
                mx[4 * c] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
                mx[4 * c + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
                mx[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
                mx[4 * c + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
            }
        }
        // Key schedule.
        let mut nk = rk;
        nk[0] = rk[0] ^ SBOX[rk[13] as usize] ^ rcon;
        nk[1] = rk[1] ^ SBOX[rk[14] as usize];
        nk[2] = rk[2] ^ SBOX[rk[15] as usize];
        nk[3] = rk[3] ^ SBOX[rk[12] as usize];
        for i in 4..16 {
            nk[i] = rk[i] ^ nk[i - 4];
        }
        rcon = xtime(rcon);
        rk = nk;
        for i in 0..16 {
            s[i] = mx[i] ^ rk[i];
        }
    }
    s
}

// ---------------------------------------------------------------------
// Anvil source generation.
// ---------------------------------------------------------------------
//
// Bit layout: byte i of a 128-bit value occupies bits [127-8i : 120-8i]
// (byte 0 is the most significant), matching the usual hex reading order.

fn byte(v: &str, i: usize) -> String {
    format!("({v})[{}:{}]", 127 - 8 * i, 120 - 8 * i)
}

/// GF(2^8) xtime as a pure expression: `(x<<1) ^ (0x1b & replicate(x[7]))`.
fn xt(x: &str) -> String {
    let m = format!("({x})[7:7]");
    format!("((({x}) << 8'd1) ^ (concat({m},{m},{m},{m},{m},{m},{m},{m}) & 8'd27))")
}

/// SubBytes+ShiftRows byte `i` of state expression `s`.
fn sub_shift(s: &str, i: usize) -> String {
    let (r, c) = (i % 4, i / 4);
    let j = r + 4 * ((c + r) % 4);
    format!("sbox({})", byte(s, j))
}

/// The next round key as an expression over `rk` (a 128-bit var text) and
/// `rc` (an 8-bit rcon var text).
fn next_rk(rk: &str, rc: &str) -> String {
    // temp = SubWord(RotWord(w3)) ^ {rcon, 0, 0, 0}
    let temp = format!(
        "concat(sbox({b13}) ^ ({rc}), sbox({b14}), sbox({b15}), sbox({b12}))",
        b13 = byte(rk, 13),
        b14 = byte(rk, 14),
        b15 = byte(rk, 15),
        b12 = byte(rk, 12),
    );
    let w = |i: usize| format!("({rk})[{}:{}]", 127 - 32 * i, 96 - 32 * i);
    let w0 = format!("({} ^ {temp})", w(0));
    let w1 = format!("({} ^ {w0})", w(1));
    let w2 = format!("({} ^ {w1})", w(2));
    let w3 = format!("({} ^ {w2})", w(3));
    format!("concat({w0}, {w1}, {w2}, {w3})")
}

/// A full middle round: MixColumns(ShiftRows(SubBytes(s))) ^ next_rk.
fn round_expr(s: &str, rk_next: &str) -> String {
    let t: Vec<String> = (0..16).map(|i| sub_shift(s, i)).collect();
    let mut bytes = Vec::new();
    for c in 0..4 {
        let col = &t[4 * c..4 * c + 4];
        bytes.push(format!(
            "({} ^ {} ^ {} ^ {} ^ {})",
            xt(&col[0]),
            xt(&col[1]),
            col[1],
            col[2],
            col[3]
        ));
        bytes.push(format!(
            "({} ^ {} ^ {} ^ {} ^ {})",
            col[0],
            xt(&col[1]),
            xt(&col[2]),
            col[2],
            col[3]
        ));
        bytes.push(format!(
            "({} ^ {} ^ {} ^ {} ^ {})",
            col[0],
            col[1],
            xt(&col[2]),
            xt(&col[3]),
            col[3]
        ));
        bytes.push(format!(
            "({} ^ {} ^ {} ^ {} ^ {})",
            xt(&col[0]),
            col[0],
            col[1],
            col[2],
            xt(&col[3])
        ));
    }
    format!("(concat({}) ^ {rk_next})", bytes.join(", "))
}

/// The final round: ShiftRows(SubBytes(s)) ^ next_rk (no MixColumns).
fn final_expr(s: &str, rk_next: &str) -> String {
    let t: Vec<String> = (0..16).map(|i| sub_shift(s, i)).collect();
    format!("(concat({}) ^ {rk_next})", t.join(", "))
}

/// The Anvil source for the AES-128 cipher core.
pub fn anvil_source() -> String {
    let nrk = next_rk("*rk", "*rc");
    format!(
        "extern fn sbox(logic[8]) -> logic[8];
         chan aes_ch {{
            left req : (logic[256]@#1),
            right res : (logic[128]@#1)
         }}
         proc aes_anvil(ep : left aes_ch) {{
            reg s : logic[128];
            reg rk : logic[128];
            reg rc : logic[8];
            reg rnd : logic[4];
            reg busy : logic;
            loop {{
                if *busy == 0 {{
                    let m = recv ep.req >>
                    set s := (m)[127:0] ^ (m)[255:128] ;
                    set rk := (m)[255:128] ;
                    set rc := 8'd1 ;
                    set rnd := 4'd1 ;
                    set busy := 1
                }} else {{
                    if *rnd == 10 {{
                        send ep.res ({fin}) >>
                        set busy := 0
                    }} else {{
                        set s := {mid} ;
                        set rk := {nrk} ;
                        set rc := {xrc} ;
                        set rnd := *rnd + 1
                    }}
                }}
            }}
         }}",
        fin = final_expr("*s", &nrk),
        mid = round_expr("*s", &nrk),
        nrk = nrk,
        xrc = xt("*rc"),
    )
}

/// Compiles and flattens the Anvil AES core (with the S-box IP linked in).
pub fn anvil_flat() -> Module {
    let mut session = Session::new();
    session.add_extern(sbox_module());
    let out = session.compile(&anvil_source()).expect("AES core compiles");
    anvil_rtl::elaborate("aes_anvil", &out.modules).expect("AES core flattens")
}

// ---------------------------------------------------------------------
// Handwritten baseline: the same iterative FSM built directly as RTL,
// instantiating the same S-box IP.
// ---------------------------------------------------------------------

struct SboxPool<'a> {
    m: &'a mut Module,
    count: usize,
}

impl<'a> SboxPool<'a> {
    /// Instantiates one S-box over `input`, returning its output wire.
    fn sbox(&mut self, input: Expr) -> Expr {
        let i = self.count;
        self.count += 1;
        let in_w = self.m.wire(format!("sb{i}_in"), 8);
        self.m.assign(in_w, input);
        let out_w = self.m.wire(format!("sb{i}_out"), 8);
        self.m.instance(
            format!("u_sbox{i}"),
            "sbox",
            vec![("in0".into(), in_w), ("out".into(), out_w)],
        );
        Expr::Signal(out_w)
    }
}

fn e_byte(v: Expr, i: usize) -> Expr {
    v.slice(120 - 8 * i, 8)
}

fn e_xt(x: Expr) -> Expr {
    let msb = x.clone().slice(7, 1);
    let mask = Expr::Concat(vec![msb; 8]).and(Expr::lit(0x1b, 8));
    Expr::bin(anvil_rtl::BinaryOp::Shl, x, Expr::lit(1, 8)).xor(mask)
}

/// Builds the baseline AES core. The returned module still instantiates
/// `sbox`; flatten with [`baseline_flat`]'s library.
pub fn baseline() -> Module {
    let mut m = Module::new("aes_baseline");
    let req_d = m.input("ep_req_data", 256);
    let req_v = m.input("ep_req_valid", 1);
    let req_a = m.output("ep_req_ack", 1);
    let res_d = m.output("ep_res_data", 128);
    let res_v = m.output("ep_res_valid", 1);
    let res_a = m.input("ep_res_ack", 1);

    let s = m.reg("s", 128);
    let rk = m.reg("rk", 128);
    let rc = m.reg("rc", 8);
    let rnd = m.reg("rnd", 4);
    let busy = m.reg("busy", 1);

    let mut pool = SboxPool {
        m: &mut m,
        count: 0,
    };

    // SubBytes + ShiftRows.
    let t: Vec<Expr> = (0..16)
        .map(|i| {
            let (r, c) = (i % 4, i / 4);
            let j = r + 4 * ((c + r) % 4);
            pool.sbox(e_byte(Expr::Signal(s), j))
        })
        .collect();
    // Key schedule.
    let temp = Expr::Concat(vec![
        pool.sbox(e_byte(Expr::Signal(rk), 13))
            .xor(Expr::Signal(rc)),
        pool.sbox(e_byte(Expr::Signal(rk), 14)),
        pool.sbox(e_byte(Expr::Signal(rk), 15)),
        pool.sbox(e_byte(Expr::Signal(rk), 12)),
    ]);
    let w = |i: usize| Expr::Signal(rk).slice(96 - 32 * i, 32);
    let w0 = m.wire_from("nk_w0", w(0).xor(temp));
    let w1 = m.wire_from("nk_w1", w(1).xor(Expr::Signal(w0)));
    let w2 = m.wire_from("nk_w2", w(2).xor(Expr::Signal(w1)));
    let w3 = m.wire_from("nk_w3", w(3).xor(Expr::Signal(w2)));
    let nrk = m.wire_from(
        "nrk",
        Expr::Concat(vec![
            Expr::Signal(w0),
            Expr::Signal(w1),
            Expr::Signal(w2),
            Expr::Signal(w3),
        ]),
    );

    // MixColumns.
    let mut mixed = Vec::new();
    for c in 0..4 {
        let col = &t[4 * c..4 * c + 4];
        mixed.push(
            e_xt(col[0].clone())
                .xor(e_xt(col[1].clone()))
                .xor(col[1].clone())
                .xor(col[2].clone())
                .xor(col[3].clone()),
        );
        mixed.push(
            col[0]
                .clone()
                .xor(e_xt(col[1].clone()))
                .xor(e_xt(col[2].clone()))
                .xor(col[2].clone())
                .xor(col[3].clone()),
        );
        mixed.push(
            col[0]
                .clone()
                .xor(col[1].clone())
                .xor(e_xt(col[2].clone()))
                .xor(e_xt(col[3].clone()))
                .xor(col[3].clone()),
        );
        mixed.push(
            e_xt(col[0].clone())
                .xor(col[0].clone())
                .xor(col[1].clone())
                .xor(col[2].clone())
                .xor(e_xt(col[3].clone())),
        );
    }
    let mid = m.wire_from("mid", Expr::Concat(mixed).xor(Expr::Signal(nrk)));
    let fin = m.wire_from("fin", Expr::Concat(t).xor(Expr::Signal(nrk)));

    // FSM (matches the Anvil thread's cycle behaviour).
    let accept = m.wire_from(
        "accept",
        Expr::Signal(busy).logic_not().and(Expr::Signal(req_v)),
    );
    m.assign(req_a, Expr::Signal(busy).logic_not());
    let last = m.wire_from("last", Expr::Signal(rnd).eq(Expr::lit(10, 4)));
    let stepr = m.wire_from(
        "stepr",
        Expr::Signal(busy).and(Expr::Signal(last).logic_not()),
    );
    let respond = m.wire_from("respond", Expr::Signal(busy).and(Expr::Signal(last)));
    let res_fire = m.wire_from("res_fire", Expr::Signal(respond).and(Expr::Signal(res_a)));

    m.update_when(
        s,
        Expr::Signal(accept),
        Expr::Signal(req_d)
            .slice(0, 128)
            .xor(Expr::Signal(req_d).slice(128, 128)),
    );
    m.update_when(s, Expr::Signal(stepr), Expr::Signal(mid));
    m.update_when(
        rk,
        Expr::Signal(accept),
        Expr::Signal(req_d).slice(128, 128),
    );
    m.update_when(rk, Expr::Signal(stepr), Expr::Signal(nrk));
    m.update_when(rc, Expr::Signal(accept), Expr::lit(1, 8));
    m.update_when(rc, Expr::Signal(stepr), e_xt(Expr::Signal(rc)));
    m.update_when(rnd, Expr::Signal(accept), Expr::lit(1, 4));
    m.update_when(
        rnd,
        Expr::Signal(stepr),
        Expr::Signal(rnd).add(Expr::lit(1, 4)),
    );
    let busy_next = Expr::mux(
        Expr::Signal(accept),
        Expr::bit(true),
        Expr::mux(Expr::Signal(res_fire), Expr::bit(false), Expr::Signal(busy)),
    );
    m.set_next(busy, busy_next);

    m.assign(res_v, Expr::Signal(respond));
    m.assign(res_d, Expr::Signal(fin));
    m
}

/// Flattens the baseline with the S-box library.
pub fn baseline_flat() -> Module {
    let mut lib = anvil_rtl::ModuleLibrary::new();
    lib.add(sbox_module());
    lib.add(baseline());
    anvil_rtl::elaborate("aes_baseline", &lib).expect("baseline AES flattens")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_sim::Sim;

    /// FIPS-197 Appendix B vector.
    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const PT: [u8; 16] = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];
    const CT: [u8; 16] = [
        0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b,
        0x32,
    ];

    fn to_bits_msb_first(bytes: &[u8]) -> Bits {
        let mut v = Bits::zero(bytes.len() * 8);
        for (i, b) in bytes.iter().enumerate() {
            for bit in 0..8 {
                if b & (0x80 >> bit) != 0 {
                    v = v.with_bit(bytes.len() * 8 - 1 - (i * 8 + bit), true);
                }
            }
        }
        v
    }

    #[test]
    fn reference_matches_fips197() {
        assert_eq!(aes128_encrypt_ref(KEY, PT), CT);
    }

    /// Runs one block through a core, returning (ciphertext, latency).
    fn encrypt_hw(m: &Module, key: [u8; 16], pt: [u8; 16]) -> (Bits, u64) {
        let mut sim = Sim::new(m).unwrap();
        let req = to_bits_msb_first(&key).concat(&to_bits_msb_first(&pt));
        sim.poke("ep_req_data", req).unwrap();
        sim.poke("ep_req_valid", Bits::bit(true)).unwrap();
        sim.poke("ep_res_ack", Bits::bit(true)).unwrap();
        let mut start = 0;
        for _ in 0..40 {
            if sim.peek("ep_req_ack").unwrap().is_truthy()
                && sim.peek("ep_req_valid").unwrap().is_truthy()
            {
                start = sim.cycle();
                sim.step().unwrap();
                sim.poke("ep_req_valid", Bits::bit(false)).unwrap();
                continue;
            }
            if sim.peek("ep_res_valid").unwrap().is_truthy() {
                let ct = sim.peek("ep_res_data").unwrap();
                return (ct, sim.cycle() - start);
            }
            sim.step().unwrap();
        }
        panic!("no ciphertext produced");
    }

    #[test]
    fn baseline_encrypts_fips_vector() {
        let (ct, latency) = encrypt_hw(&baseline_flat(), KEY, PT);
        assert_eq!(ct, to_bits_msb_first(&CT));
        // 1 load + 9 rounds + respond: latency tracks the round count.
        assert!((10..=13).contains(&latency), "latency {latency}");
    }

    #[test]
    fn anvil_encrypts_fips_vector() {
        let (ct, latency) = encrypt_hw(&anvil_flat(), KEY, PT);
        assert_eq!(ct, to_bits_msb_first(&CT));
        assert!((10..=14).contains(&latency), "latency {latency}");
    }

    #[test]
    fn anvil_and_baseline_agree_on_random_blocks() {
        let a = anvil_flat();
        let b = baseline_flat();
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..3 {
            let key: [u8; 16] = rng.gen();
            let pt: [u8; 16] = rng.gen();
            let expect = aes128_encrypt_ref(key, pt);
            let (ca, _) = encrypt_hw(&a, key, pt);
            let (cb, _) = encrypt_hw(&b, key, pt);
            assert_eq!(ca, to_bits_msb_first(&expect));
            assert_eq!(cb, to_bits_msb_first(&expect));
        }
    }
}
