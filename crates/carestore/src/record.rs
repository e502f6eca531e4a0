//! The record codec under the names external tools build log lines with.
//!
//! The codec itself lives beside [`InjectionRecord`] in [`faultsim::wire`]
//! and the JSON dialect in [`telemetry::json`]; the store writes and reads
//! whole lines through [`crate::log::LogLine`]. These functions are that
//! codec for a caller that holds an open object in a `String`.

use faultsim::InjectionRecord;
use telemetry::json::Obj;

pub use faultsim::wire::record_from_json;

/// `,"key":<u64>` appended to an open object (wire spelling: a decimal
/// string beyond 2⁵³).
pub fn push_field_u64(out: &mut String, key: &str, val: u64) {
    Obj::append(out, |o| {
        o.u64(key, val);
    });
}

/// Append one record's fields to an already-open JSON object (the caller
/// owns the `{"kind":...}` framing and the closing brace).
pub fn push_record_fields(out: &mut String, r: &InjectionRecord) {
    Obj::append(out, |o| faultsim::wire::push_record_fields(o, r));
}
