//! The collector forgets exited threads. Every thread that records a
//! span registers a buffer; a long-lived process that runs each request
//! on a new thread would otherwise keep one buffer per request forever,
//! and every later capture would scan them all.
//!
//! A file of its own: the buffer count is process-wide, so no other test
//! may record spans while this one counts.

use anvil_trace::{registered_buffers_for_tests, span, Capture};

const THREADS: usize = 64;

#[test]
fn last_capture_drops_the_buffers_of_exited_threads() {
    let before = registered_buffers_for_tests();
    let cap = Capture::start();
    for _ in 0..THREADS {
        std::thread::spawn(|| drop(span("test", "worker")))
            .join()
            .unwrap();
    }
    assert_eq!(registered_buffers_for_tests(), before + THREADS);
    let records = cap.finish();
    assert_eq!(
        records.iter().filter(|r| r.name == "worker").count(),
        THREADS,
        "records of exited threads still reach the capture"
    );
    assert_eq!(registered_buffers_for_tests(), before);

    // A live thread keeps its buffer across the release.
    let cap = Capture::start();
    drop(span("test", "main"));
    drop(cap);
    assert_eq!(registered_buffers_for_tests(), before + 1);
}
