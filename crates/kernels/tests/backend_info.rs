//! The resolved backend is an identity fact of the process, not a tally:
//! it must outlive `submod_obs::reset_metrics` (which `experiments
//! profile` and the repo benchmark call between phases) and ride in every
//! export. Its own test binary, so the global reset races with nothing.

#[test]
fn backend_identity_survives_a_metrics_reset() {
    submod_obs::reset_metrics();
    assert_eq!(submod_kernels::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    let name = submod_kernels::backend().name();
    let entry = format!("\"kernels.backend\":\"{name}\"");

    submod_obs::reset_metrics();
    let snap = submod_obs::snapshot();
    assert_eq!(snap.info.get("kernels.backend").map(String::as_str), Some(name));
    assert!(submod_obs::metrics_json(&snap).contains(&entry));
    assert!(submod_obs::chrome_trace_json(&[]).contains(&entry));
}
