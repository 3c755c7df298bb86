//! The designs the workloads run, their seeded inputs, and the checks of
//! their outputs against the independent Rust references in
//! `cascade_workloads`.

use cascade_bits::prng::Prng;
use cascade_workloads::regex::{self, Dfa};
use cascade_workloads::sha256::{find_nonce, miner_verilog, Flavor, MinerConfig};
use std::fmt::Write as _;

/// Leading-word target of the miner: about one accepted nonce per 256
/// attempts (~17K ticks), so output stays a trickle beside the kernel work.
const MINER_TARGET: u32 = 0x0100_0000;

/// The SHA-256 miner with seeded data and start nonce.
#[derive(Clone)]
pub struct Miner {
    pub data: u32,
    pub start: u32,
}

impl Miner {
    pub fn from_seed(seed: u64) -> Miner {
        let mut rng = Prng::new(seed ^ 0x5eed_0001);
        Miner {
            data: rng.next_u64() as u32,
            start: (rng.next_u64() as u32) & 0x00ff_ffff,
        }
    }

    fn config(&self) -> MinerConfig {
        MinerConfig {
            data: self.data,
            target: MINER_TARGET,
            start_nonce: self.start,
            announce: false,
            use_functions: false,
        }
    }

    /// The Cascade-flavour miner, changed to keep mining after a hit: each
    /// accepted nonce is announced with `$display` and the search moves on,
    /// so one design yields a checkable stream of results in every mode.
    pub fn cascade_source(&self) -> String {
        let src = miner_verilog(&self.config(), Flavor::Cascade);
        let accept = "      state <= 2'd2;\n";
        assert_eq!(
            src.matches(accept).count(),
            1,
            "the miner generator's accept branch changed"
        );
        src.replace(
            accept,
            "      begin\n        $display(\"FOUND nonce=%h hash=%h\", nonce, digest0);\n        \
             nonce <= nonce + 1;\n        state <= 2'd0;\n      end\n",
        )
    }

    /// The standalone module form (`Miner`), for the bare engines.
    pub fn ported_source(&self) -> String {
        miner_verilog(
            &MinerConfig {
                target: 0,
                ..self.config()
            },
            Flavor::Ported,
        )
    }

    pub fn checker(&self) -> MinerCheck {
        MinerCheck {
            data: self.data,
            next: self.start,
            hits: 0,
        }
    }
}

/// Checks a miner's `FOUND` lines, in order, against `find_nonce`.
pub struct MinerCheck {
    data: u32,
    next: u32,
    pub hits: u64,
}

impl MinerCheck {
    /// Checks output lines; returns how many were wrong.
    pub fn check(&mut self, lines: &[String]) -> u64 {
        let mut wrong = 0;
        for line in lines {
            let (nonce, digest) = find_nonce(self.data, MINER_TARGET, self.next);
            let want = format!("FOUND nonce={nonce:08x} hash={:08x}", digest[0]);
            if line.trim() == want {
                self.hits += 1;
            } else {
                eprintln!("miner output mismatch: got `{line}`, want `{want}`");
                wrong += 1;
            }
            self.next = nonce.wrapping_add(1);
        }
        wrong
    }
}

/// The Snort-style pattern the matcher runs.
pub const PATTERN: &str = "GET |POST |HEAD ";

pub fn dfa() -> Dfa {
    regex::compile(PATTERN).expect("the benchmark pattern compiles")
}

/// Seeded HTTP-ish traffic: request lines, some matching the pattern,
/// with random noise between them.
pub struct Traffic {
    rng: Prng,
}

impl Traffic {
    pub fn new(seed: u64) -> Traffic {
        Traffic {
            rng: Prng::new(seed ^ 0x7aff_1c00),
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        const VERBS: [&[u8]; 6] = [b"GET ", b"POST ", b"HEAD ", b"PUT ", b"GE", b"POS"];
        let mut out = Vec::with_capacity(n + 32);
        while out.len() < n {
            let verb = *self.rng.pick(&VERBS);
            out.extend_from_slice(verb);
            out.push(b'/');
            for _ in 0..self.rng.range(1, 12) {
                out.push(b'a' + self.rng.below(26) as u8);
            }
            for _ in 0..self.rng.below(8) {
                out.push(self.rng.range(0x20, 0x7e) as u8);
            }
            out.push(b' ');
        }
        out.truncate(n);
        out
    }
}

/// The matcher in Cascade flavour: it reads the board FIFO.
pub fn matcher_cascade(dfa: &Dfa) -> String {
    regex::matcher_verilog(dfa, regex::Flavor::Cascade)
}

/// The ported matcher wrapped in a self-driving top (`Driven`) that streams
/// a fixed request line through it one byte per cycle, so the bare engines
/// do a state transition every cycle instead of idling on a constant input.
pub fn matcher_driven(dfa: &Dfa) -> String {
    let msg = b"GET /x HTTP/1.0 ";
    let mut s = regex::matcher_verilog(dfa, regex::Flavor::Ported);
    s.push_str("module Driven(input wire clk, output wire [31:0] matches);\n");
    s.push_str("reg [3:0] ptr = 0;\nreg [7:0] ch;\n");
    s.push_str("always @(*) case (ptr)\n");
    for (i, b) in msg.iter().enumerate() {
        let _ = writeln!(s, "  4'd{i}: ch = 8'd{b};");
    }
    s.push_str("  default: ch = 8'd0;\nendcase\n");
    s.push_str("always @(posedge clk) ptr <= ptr + 1;\n");
    s.push_str("Matcher m(.clk(clk), .byte_in(ch), .valid(1'b1), .matches(matches));\nendmodule\n");
    s
}

/// A seeded Needleman-Wunsch corpus of equal-length sequence pairs.
pub fn nw_corpus(seed: u64, pairs: usize, seq_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    const BASES: [u8; 4] = *b"ACGT";
    let mut rng = Prng::new(seed ^ 0x0a11_9e00);
    let seq = |rng: &mut Prng| -> Vec<u8> { (0..seq_len).map(|_| *rng.pick(&BASES)).collect() };
    (0..pairs)
        .map(|_| {
            let a = seq(&mut rng);
            // Half the pairs are mutations of `a`, so scores spread over
            // the whole range instead of clustering near random alignment.
            let b = if rng.chance(1, 2) {
                a.iter()
                    .map(|&c| {
                        if rng.chance(1, 4) {
                            *rng.pick(&BASES)
                        } else {
                            c
                        }
                    })
                    .collect()
            } else {
                seq(&mut rng)
            };
            (a, b)
        })
        .collect()
}

/// Symbols per graded sequence and the score cell width.
pub const NW_LEN: usize = 6;
pub const NW_CELL_WIDTH: u32 = 16;

/// The grader in Cascade flavour: the `NwGrader` module plus a root
/// instance scoring one fixed pair, for the runtime workloads. The LEDs
/// show `{done, score[6:0]}`: a result that reaches a board output, since
/// in hardware a wire that drives nothing is not kept for `probe`.
pub fn grader_cascade(a: &[u8], b: &[u8]) -> String {
    let bits = a.len() * 2;
    let mut s = cascade_workloads::needleman::grader_module(a.len(), NW_CELL_WIDTH);
    let pack = cascade_workloads::needleman::pack_sequence;
    let _ = writeln!(s, "reg [{}:0] sa = {bits}'h{:x};", bits - 1, pack(a));
    let _ = writeln!(s, "reg [{}:0] sb = {bits}'h{:x};", bits - 1, pack(b));
    let _ = writeln!(s, "wire [{}:0] score;\nwire done;", NW_CELL_WIDTH - 1);
    s.push_str("NwGrader g(.clk(clk.val), .seq_a(sa), .seq_b(sb), .score(score), .done(done));\n");
    s.push_str("assign led.val = {done, score[6:0]};\n");
    s
}

/// Sign-extends a `width`-bit two's-complement value.
pub fn sign_extend(raw: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((raw << shift) as i64) >> shift
}
