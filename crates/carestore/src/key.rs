//! Content-addressed campaign keys.
//!
//! A campaign's identity is `(module_hash, opt, engine_version)`:
//!
//! * `module_hash` — a [`ContentHash`] over the module's **canonical
//!   TinyIR printing** (`tinyir::display::print_module`), not its source
//!   text, plus the invocation that defines the golden run (entry symbol,
//!   raw-bit arguments, output regions). Reformatting the source —
//!   whitespace, comments, ordering of equivalent text — cannot change
//!   the key; changing one instruction must.
//! * `opt` — the optimisation level the module is compiled at (different
//!   machine code, different injection space).
//! * `engine_version` — [`simx::ENGINE_VERSION`], the version of the
//!   engines' observable record semantics. Engine *kind* is deliberately
//!   absent: interpreter and compiled backend are pinned bit-identical.
//!
//! An individual injection result is then keyed by
//! `(campaign_key, model, seed, injection_index)` — the first three name
//! a record log and a run context inside it ([`crate::log`]), the index
//! names the record line.
//!
//! The canonical string encoding is `care1:<32 hex>:<opt>:e<version>` and
//! is a stability contract (golden-pinned in careserve's proto tests): it
//! replaces the server's old `Debug`-formatted text keys.

use crate::hash::ContentHash;
use tinyir::display::print_module;
use tinyir::Module;

/// Prefix of the canonical key encoding; bump the digit if the encoding
/// itself (not the hash) ever changes shape.
const KEY_PREFIX: &str = "care1";

/// The `(module_hash, opt, engine_version)` campaign identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CampaignKey {
    /// Hash of canonical module printing + entry + args + outputs.
    pub module_hash: ContentHash,
    /// Optimisation-level name (`O0`, `O1`, ...).
    pub opt: String,
    /// [`simx::ENGINE_VERSION`] at key construction.
    pub engine_version: u32,
}

impl CampaignKey {
    /// Canonical string encoding: `care1:<32 hex>:<opt>:e<version>`.
    pub fn encode(&self) -> String {
        format!("{KEY_PREFIX}:{}:{}:e{}", self.module_hash, self.opt, self.engine_version)
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(s: &str) -> Option<CampaignKey> {
        let mut parts = s.split(':');
        if parts.next()? != KEY_PREFIX {
            return None;
        }
        let module_hash = ContentHash::from_hex(parts.next()?)?;
        let opt = parts.next()?;
        if opt.is_empty() {
            return None;
        }
        let ver = parts.next()?.strip_prefix('e')?;
        if parts.next().is_some() {
            return None;
        }
        Some(CampaignKey { module_hash, opt: opt.to_string(), engine_version: ver.parse().ok()? })
    }

    /// Filesystem name of this campaign's record log.
    pub fn file_name(&self) -> String {
        format!("{}-{}-e{}.jsonl", self.module_hash, self.opt, self.engine_version)
    }
}

/// Build the campaign key for a workload: `module` is canonically printed
/// (so the key is invariant under source reformatting), and the golden
/// run's invocation — `entry`, `args`, `outputs` — is folded into the
/// hash alongside it (a different argument vector is a different golden
/// run, hence a different injection space).
pub fn campaign_key(
    module: &Module,
    entry: &str,
    args: &[u64],
    outputs: &[(String, u64)],
    opt: &str,
) -> CampaignKey {
    let mut input = String::with_capacity(4096);
    input.push_str("care-campaign/v1\n");
    input.push_str(&print_module(module));
    // '\n' cannot appear inside the printed fields below, so the framing
    // is unambiguous without escaping.
    input.push_str("\nentry=");
    input.push_str(entry);
    for a in args {
        input.push_str("\narg=");
        input.push_str(&a.to_string());
    }
    for (name, bytes) in outputs {
        input.push_str("\nout=");
        input.push_str(name);
        input.push('=');
        input.push_str(&bytes.to_string());
    }
    CampaignKey {
        module_hash: ContentHash::of(input.as_bytes()),
        opt: opt.to_string(),
        engine_version: simx::ENGINE_VERSION,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::parser::parse_module;
    use tinyir::{Ty, Value};

    fn tiny_module(addend: i64) -> Module {
        let mut mb = ModuleBuilder::new("tiny", "tiny.c");
        let out = mb.global_zeroed("out", Ty::I64, 1);
        mb.define("main", vec![], Some(Ty::I64), |fb| {
            let a = fb.add(Value::i64(2), Value::i64(addend), Ty::I64);
            fb.store(a, fb.global(out));
            fb.ret(Some(a));
        });
        mb.finish()
    }

    fn key_of(m: &Module) -> CampaignKey {
        campaign_key(m, "main", &[], &[("out".to_string(), 8)], "O1")
    }

    /// Reformatting the source text — indentation, blank lines, comments —
    /// is invisible: the hash covers the canonical printing of the parsed
    /// module, not the bytes it arrived as.
    #[test]
    fn reformatted_module_text_hashes_identically() {
        let canonical = print_module(&tiny_module(3));
        let reformatted: String =
            canonical.lines().map(|l| format!("   {l}   ; a trailing comment\n\n")).collect();
        assert_ne!(canonical, reformatted);
        let a = parse_module(&canonical).expect("canonical parses");
        let b = parse_module(&reformatted).expect("reformatted parses");
        assert_eq!(key_of(&a), key_of(&b));
        assert_eq!(key_of(&a), key_of(&tiny_module(3)));
    }

    /// One changed instruction must change the key.
    #[test]
    fn one_instruction_change_changes_the_key() {
        assert_ne!(key_of(&tiny_module(3)).module_hash, key_of(&tiny_module(4)).module_hash);
    }

    /// The invocation is part of the identity: same module, different
    /// args/outputs → different golden run → different key.
    #[test]
    fn invocation_is_part_of_the_key() {
        let m = tiny_module(3);
        let base = key_of(&m);
        let other_args = campaign_key(&m, "main", &[1], &[("out".to_string(), 8)], "O1");
        let other_out = campaign_key(&m, "main", &[], &[("out".to_string(), 16)], "O1");
        assert_ne!(base.module_hash, other_args.module_hash);
        assert_ne!(base.module_hash, other_out.module_hash);
        // Opt level separates without touching the hash.
        let o0 = campaign_key(&m, "main", &[], &[("out".to_string(), 8)], "O0");
        assert_eq!(base.module_hash, o0.module_hash);
        assert_ne!(base.encode(), o0.encode());
    }

    #[test]
    fn encoding_round_trips_and_rejects_garbage() {
        let k = key_of(&tiny_module(3));
        let s = k.encode();
        assert!(s.starts_with("care1:"));
        assert_eq!(CampaignKey::decode(&s), Some(k.clone()));
        assert_eq!(CampaignKey::decode(""), None);
        assert_eq!(CampaignKey::decode("care2:x"), None);
        assert_eq!(CampaignKey::decode(&s.replace(":e", ":")), None);
        assert_eq!(CampaignKey::decode(&format!("{s}:extra")), None);
        assert!(k.file_name().ends_with(&format!("-O1-e{}.jsonl", simx::ENGINE_VERSION)));
    }
}
