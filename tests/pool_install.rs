//! `ThreadPool::install` from a thread outside the pool: the job runs on a
//! worker even when it is the first thing a fresh pool sees, and a caller
//! that stops spinning and sleeps on the job's latch still gets the result.

use std::time::Duration;
use stint_repro::cilkrt::ThreadPool;

fn on_worker() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("cilkrt-worker-"))
}

#[test]
fn first_install_on_a_fresh_pool_runs_on_a_worker() {
    for workers in [1, 2, 4] {
        for _ in 0..20 {
            let pool = ThreadPool::new(workers);
            assert!(
                pool.install(on_worker),
                "{workers}-worker pool ran its first install on the caller"
            );
        }
    }
}

#[test]
fn install_outlasting_the_spin_window_returns_its_result() {
    let pool = ThreadPool::new(2);
    for ms in [1, 20, 100] {
        let got = pool.install(|| {
            std::thread::sleep(Duration::from_millis(ms));
            (on_worker(), ms * 2)
        });
        assert_eq!(got, (true, ms * 2));
    }
}
