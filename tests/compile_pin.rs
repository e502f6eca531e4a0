//! Compiled-bytes pin: `care::compile`'s whole output, fingerprinted.
//!
//! The compile pipeline (opt → Armor → codegen) is rewritten for speed
//! from time to time; its output must not move when that happens. This
//! test hashes everything a compiled app carries — every machine
//! function, the line table, the variable DIEs, the encoded recovery
//! table, the printed kernel library and the DIE requests — for the five
//! Table 1 programs at O0 and O1 and for two GTC-P builder variants of the
//! kind a served cache-miss job compiles, and compares the hashes with
//! constants. A stale pin fails with its replacement lines.
//!
//! The fingerprint is built from ordered data only: `debug.vars` is a
//! `HashMap`, so its DIEs are hashed sorted by name, and the recovery table
//! through its sorted `encode()`. A DIE request names its value by
//! instruction id, and at O1 those ids are the ones `opt::optimize` leaves
//! after compacting each function (`tinyir::Function::compact`): a change
//! to which instructions O1 deletes, or to how compaction numbers the
//! survivors, moves the O1 pins even when no machine byte moves.

use opt::OptLevel;
use tinyir::Module;

/// FNV-1a over a byte stream: stable across builds, hosts and runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// The fingerprint of one compiled app.
fn fingerprint(module: &Module, level: OptLevel) -> u64 {
    let app = care::compile(module, level);
    let mut h = Fnv::new();
    for f in &app.machine.funcs {
        h.bytes(f.name.as_bytes());
        h.debug(&f.instrs);
        h.debug(&f.locs);
        h.debug(&(f.frame_size, f.code_offset, f.is_decl));
    }
    h.debug(&app.machine.code_size);
    h.debug(&app.machine.debug.line_table);
    let mut dies: Vec<_> = app.machine.debug.vars.values().collect();
    dies.sort_by(|a, b| a.name.cmp(&b.name));
    for d in dies {
        h.bytes(d.name.as_bytes());
        h.debug(&d.locs);
    }
    h.bytes(&app.armor.table.encode());
    h.bytes(tinyir::display::print_module(&app.armor.kernel_module).as_bytes());
    for r in &app.armor.die_requests {
        h.debug(&(r.func, r.value, &r.name));
    }
    h.0
}

/// The programs pinned: the five Table 1 workloads and two GTC-P variants.
fn programs() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> =
        workloads::all().into_iter().map(|w| (w.name.to_string(), w.module)).collect();
    for [mpsi, mzeta, np, steps] in [[8, 2, 48, 3], [9, 3, 63, 3]] {
        let w = workloads::gtcp::build(mpsi, mzeta, np, steps);
        out.push((format!("gtcp[{mpsi},{mzeta},{np},{steps}]"), w.module));
    }
    out
}

/// `(program, level, fingerprint)`. A change meant to move compiled output
/// replaces these with the lines the failing test prints.
const PINS: &[(&str, &str, u64)] = &[
    ("HPCCG", "O0", 0x14f8d090b14e2823),
    ("HPCCG", "O1", 0x147751063209a0b9),
    ("CoMD", "O0", 0xeae53d6c6e40496e),
    ("CoMD", "O1", 0x35691db5b8fc3915),
    ("miniFE", "O0", 0xfede6697c1d4b0ae),
    ("miniFE", "O1", 0x8ac600dd90799a30),
    ("miniMD", "O0", 0xef58e5392c025fb0),
    ("miniMD", "O1", 0xcfd043b034f0f3fb),
    ("GTC-P", "O0", 0x9a37689e62498cab),
    ("GTC-P", "O1", 0x804a89df830ee56e),
    ("gtcp[8,2,48,3]", "O0", 0x30ec576e3547d1f1),
    ("gtcp[8,2,48,3]", "O1", 0x2fd11e93cbf63ed4),
    ("gtcp[9,3,63,3]", "O0", 0xf0d48e3e6b09c5a8),
    ("gtcp[9,3,63,3]", "O1", 0xe73fded16313be6b),
];

#[test]
fn compiled_output_matches_its_pins() {
    let mut got = Vec::new();
    for (name, module) in programs() {
        for level in [OptLevel::O0, OptLevel::O1] {
            got.push((name.clone(), level.to_string(), fingerprint(&module, level)));
        }
    }
    let want: Vec<(String, String, u64)> =
        PINS.iter().map(|&(n, l, h)| (n.to_string(), l.to_string(), h)).collect();
    if got != want {
        let lines: Vec<String> =
            got.iter().map(|(n, l, h)| format!("    ({n:?}, {l:?}, {h:#018x}),")).collect();
        panic!("compiled output moved; the pins it gives are:\n{}", lines.join("\n"));
    }
}

#[test]
fn fingerprint_is_stable_within_a_run() {
    let w = workloads::gtcp::build(8, 2, 48, 3);
    assert_eq!(fingerprint(&w.module, OptLevel::O1), fingerprint(&w.module, OptLevel::O1));
}

/// O1 leaves exactly the instructions its blocks list, so every O1 module
/// prints to text that parses back to the same text.
#[test]
fn o1_modules_are_compact_and_print_to_text_that_parses() {
    for (name, mut module) in programs() {
        opt::optimize(&mut module, OptLevel::O1);
        for f in &module.funcs {
            assert_eq!(f.instrs.len(), f.live_instr_count(), "{name} @{}", f.name);
        }
        let text = tinyir::display::print_module(&module);
        let back = tinyir::parser::parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(tinyir::display::print_module(&back), text, "{name}");
    }
}
