//! The workspace's one parallel map: an indexed work-stealing pool.
//!
//! Batch migration, page-parallel migration stages and the §3.1
//! divergence sweep all fan independent jobs over threads and need the
//! results back in input order. [`map`] is that primitive: each worker
//! owns a deque of jobs, pops its own front, and steals from the *back*
//! of another worker's deque when its own runs dry. Results land in
//! index-addressed slots, so the output is in input order and identical
//! to a sequential run regardless of thread count or steal timing.
//!
//! ```
//! use interop_core::par;
//! use obs::NullRecorder;
//!
//! let squares = par::map("demo", &NullRecorder, 4, 0..10u32, |x| x * x);
//! assert_eq!(squares, (0..10u32).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::collections::VecDeque;
use std::panic;
use std::sync::Mutex;
use std::thread;

use obs::{Recorder, Span};

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results in input order.
///
/// The caller runs as worker 0, so only `workers - 1` threads are
/// spawned. The worker count is clamped to the job count (never to the
/// host's parallelism: callers may ask for more threads than cores).
/// With one worker, `f` runs in order on the caller with no queue, no
/// lock and no span.
///
/// With more than one worker the pool records, into `recorder`, one
/// `<name>.worker` span per worker (parented to the caller's current
/// span, so the trace tree survives the thread handoff), a
/// `<name>.steals` counter, and a `<name>.queue_depth` histogram of the
/// taking worker's own queue length as each job starts.
///
/// A panic in `f` propagates to the caller after every worker stops.
pub fn map<I, T, R, F>(
    name: &str,
    recorder: &dyn Recorder,
    workers: usize,
    items: I,
    f: F,
) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: ExactSizeIterator,
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items = items.into_iter();
    let jobs = items.len();
    let workers = workers.clamp(1, jobs.max(1));
    if workers == 1 {
        return items.map(f).collect();
    }

    let pool = Pool {
        queues: {
            let mut queues: Vec<VecDeque<(usize, T)>> =
                (0..workers).map(|_| VecDeque::new()).collect();
            // Round-robin, so every worker starts with local work.
            for (job, item) in items.enumerate() {
                queues[job % workers].push_back((job, item));
            }
            queues.into_iter().map(Mutex::new).collect()
        },
        recorder,
        worker_span: format!("{name}.worker"),
        steals: format!("{name}.steals"),
        queue_depth: format!("{name}.queue_depth"),
    };
    let parent = obs::current_span();
    let (pool, f) = (&pool, &f);
    let done: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let _ctx = parent.map(obs::attach_parent);
                    pool.work(worker, f)
                })
            })
            .collect();
        let mut done = vec![pool.work(0, f)];
        for handle in handles {
            match handle.join() {
                Ok(results) => done.push(results),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        done
    });

    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs, || None);
    for (job, result) in done.into_iter().flatten() {
        slots[job] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index is taken exactly once"))
        .collect()
}

/// Per-worker deques plus the pool's observability names.
struct Pool<'r, T> {
    queues: Vec<Mutex<VecDeque<(usize, T)>>>,
    recorder: &'r dyn Recorder,
    worker_span: String,
    steals: String,
    queue_depth: String,
}

impl<T> Pool<'_, T> {
    fn queue(&self, worker: usize) -> std::sync::MutexGuard<'_, VecDeque<(usize, T)>> {
        // Jobs run with no queue lock held, so a panicking job cannot
        // poison one.
        self.queues[worker]
            .lock()
            .expect("queue locks are never held across a job")
    }

    /// Takes `worker`'s next job: own front first, then the back of the
    /// other queues. `None` means the pool is drained — no job is added
    /// after start, so empty-everywhere is terminal.
    fn take(&self, worker: usize) -> Option<((usize, T), bool)> {
        if let Some(job) = self.queue(worker).pop_front() {
            return Some((job, false));
        }
        let n = self.queues.len();
        (1..n).find_map(|offset| {
            let victim = (worker + offset) % n;
            self.queue(victim).pop_back().map(|job| (job, true))
        })
    }

    fn work<R>(&self, worker: usize, f: &impl Fn(T) -> R) -> Vec<(usize, R)> {
        let span = Span::enter(self.recorder, self.worker_span.as_str());
        span.attr("worker", worker);
        let mut done = Vec::new();
        let mut steals = 0u64;
        while let Some(((job, item), stolen)) = self.take(worker) {
            if stolen {
                steals += 1;
                self.recorder.add_counter(&self.steals, 1);
            }
            let depth = self.queue(worker).len();
            self.recorder.record_value(&self.queue_depth, depth as u64);
            done.push((job, f(item)));
        }
        span.attr("jobs", done.len());
        span.attr("steals", steals);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{NullRecorder, TraceRecorder};

    #[test]
    fn output_order_matches_sequential_at_any_worker_count() {
        let sequential: Vec<u32> = (0..37u32).map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 8] {
            let got = map("t", &NullRecorder, workers, 0..37u32, |x| x * x + 1);
            assert_eq!(got, sequential, "workers={workers}");
        }
    }

    #[test]
    fn zero_jobs_and_more_workers_than_jobs() {
        let none: Vec<u8> = map("t", &NullRecorder, 8, Vec::<u8>::new(), |x| x);
        assert!(none.is_empty());
        assert_eq!(
            map("t", &NullRecorder, 16, vec![3, 1], |x| x * 2),
            vec![6, 2]
        );
    }

    #[test]
    fn items_are_moved_into_jobs() {
        let mut cells = vec![0u32; 9];
        map(
            "t",
            &NullRecorder,
            3,
            cells.iter_mut().enumerate(),
            |(i, c)| *c = i as u32,
        );
        assert_eq!(cells, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn one_worker_runs_inline_without_spans() {
        let rec = TraceRecorder::new();
        let caller = thread::current().id();
        map("t", &rec, 1, 0..4, |_| {
            assert_eq!(thread::current().id(), caller)
        });
        assert!(rec.finished_spans().is_empty());
    }

    #[test]
    fn eight_workers_record_steals_depth_and_parented_spans() {
        use std::sync::Condvar;

        let rec = TraceRecorder::new();
        let root = Span::enter(&rec, "caller");
        let root_id = root.id();
        // Jobs 0 and 56 share worker 0's deque (round-robin over 8).
        // Job 0 blocks until job 56 has run, and worker 0 takes its own
        // front first, so job 56 (or job 0 itself) must be stolen.
        let released = (Mutex::new(false), Condvar::new());
        let got = map("pool", &rec, 8, 0..64u32, |x| {
            let (flag, cv) = &released;
            if x == 56 {
                *flag.lock().unwrap() = true;
                cv.notify_all();
            } else if x == 0 {
                let mut done = flag.lock().unwrap();
                while !*done {
                    done = cv.wait(done).unwrap();
                }
            }
            x
        });
        drop(root);
        assert_eq!(got, (0..64).collect::<Vec<u32>>());
        let spans = rec.finished_spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "pool.worker").collect();
        assert_eq!(workers.len(), 8);
        assert!(workers.iter().all(|w| w.parent == Some(root_id)));
        assert!(rec.counter("pool.steals") > 0);
        assert_eq!(rec.histogram("pool.queue_depth").map(|h| h.count), Some(64));
    }
}
