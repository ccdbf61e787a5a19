// Fixture: a directive whose rule name holds a tab. It suppresses
// nothing, and the unused-allow message quotes the name, tab and all,
// so the JSON report must escape the tab to stay valid JSON.
pub fn triple(v: u64) -> u64 {
    // fcad-lint: allow(pa	nic): reason
    v * 3
}
