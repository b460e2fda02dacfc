//! A fixed-size worker pool over `std::sync::mpsc` — one long-lived
//! thread per worker, jobs dispatched through a shared channel. Dropping
//! the pool closes the channel and joins every worker, so server
//! shutdown is deterministic.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The worker pool.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `n` workers (`n` is clamped to at least 1). Fails only when
    /// the OS refuses to spawn a thread.
    pub fn new(n: usize) -> std::io::Result<ThreadPool> {
        let n = n.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..n)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("mc3-serve-{i}"))
                    .spawn(move || worker_loop(&rx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ThreadPool {
            tx: Some(tx),
            workers,
        })
    }

    /// Enqueues a job; it runs on the first free worker. Returns whether
    /// the job was accepted — `false` means the pool is shutting down and
    /// the job was **not** run, so the caller must fail the work it
    /// represents explicitly (the accept loop answers 503) instead of
    /// leaving its client hanging on a silently dropped connection.
    #[must_use]
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &self.tx {
            Some(tx) => {
                let accepted = tx.send(Box::new(job)).is_ok();
                if !accepted {
                    mc3_obs::debug("server.pool", "job rejected: pool is shutting down", &[]);
                }
                accepted
            }
            None => false,
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let held = rx.lock().unwrap_or_else(|p| p.into_inner());
            held.recv()
        };
        match job {
            // The backstop: a panic inside a request is already answered
            // 500 by the server's handler wrapper, so only a panic outside
            // one (connection setup, the write path) reaches here. It must
            // not take the worker down with it — a server that loses a
            // worker per bad connection starves itself. The connection is
            // dropped during unwind, so the client sees a clean close
            // rather than a hang.
            Ok(job) => {
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    mc3_obs::warn(
                        "server.pool",
                        "connection job panicked outside a request; its connection was dropped",
                        &[],
                    );
                }
            }
            Err(_) => break, // channel closed: pool is shutting down
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // closes the channel; workers drain and exit
        for handle in self.workers.drain(..) {
            // Jobs run under catch_unwind, so a worker can only die to an
            // abort-on-panic build; still, never let one lost thread stop
            // the drain that joins the rest.
            if handle.join().is_err() {
                mc3_obs::error("server.pool", "worker thread panicked", &[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs_and_joins_on_drop() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3).expect("spawn pool");
            for _ in 0..32 {
                let done = Arc::clone(&done);
                let accepted = pool.execute(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
                assert!(accepted, "live pool must accept jobs");
            }
        } // drop joins: every job must have run by now
        assert_eq!(done.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(0).expect("spawn pool");
            let d = Arc::clone(&done);
            assert!(pool.execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
