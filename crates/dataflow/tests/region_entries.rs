//! Parallel-region accounting of the engine's barriers. The metrics
//! registry is process-global, so this binary holds one test: no other
//! test's regions can land in the counts it reads.

use submod_dataflow::Pipeline;
use submod_exec::with_threads;

/// A barrier on a collection whose chains all executed returns the kept
/// shards without entering a parallel region.
#[test]
fn barrier_after_execution_enters_no_region() {
    let regions = || submod_obs::counter("exec.region_entries").value();
    with_threads(2, || {
        let p = Pipeline::new(4).unwrap();
        let values = p.from_vec((0..4000).map(f64::from).collect()).map(|x| x.sin()).unwrap();
        let before = regions();
        assert_eq!(values.count().unwrap(), 4000);
        let executed = regions();
        assert!(executed > before, "the first barrier runs the pending chains in a region");
        values.kth_largest(100).unwrap();
        assert_eq!(values.collect().unwrap().len(), 4000);
        assert_eq!(values.count().unwrap(), 4000);
        assert_eq!(regions(), executed, "a barrier over executed chains entered a region");
    });
}
