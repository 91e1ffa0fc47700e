//! The catalog's scheduling points: the places where its threads may
//! interleave.
//!
//! Outside this crate's unit tests each function is the plain operation:
//! [`yield_point`] compiles to nothing, [`spawn`] is `std::thread::spawn`,
//! and [`wait`] / [`notify_all`] are the condvar's. Under `cfg(test)` a
//! thread started by [`explore::explore`] passes a baton at each of them
//! instead, so one run is one schedule and the explorer can enumerate
//! them; every other thread still gets the plain operation.

use std::sync::{Condvar, MutexGuard, PoisonError};

use parking_lot::Mutex;

/// A named point where the scheduler may switch threads: `claim` (a serve
/// about to read the slot), `publish`, `spawn` (after a fold thread
/// starts), `query` and `write` (a test endpoint's).
#[cfg(not(test))]
#[inline(always)]
pub(crate) fn yield_point(_point: &'static str) {}

/// Starts a fold thread.
#[cfg(not(test))]
pub(crate) fn spawn(work: impl FnOnce() + Send + 'static) {
    std::thread::spawn(work);
}

/// Parks on `condvar` until [`notify_all`], returning `lock`'s guard.
pub(crate) fn wait<'a, T>(
    condvar: &Condvar,
    lock: &'a Mutex<T>,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    #[cfg(test)]
    if explore::managed() {
        drop(guard);
        explore::block();
        return lock.lock();
    }
    let _ = lock;
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Wakes every thread parked in [`wait`] on `condvar`.
pub(crate) fn notify_all(condvar: &Condvar) {
    condvar.notify_all();
    #[cfg(test)]
    explore::wake_all();
}

#[cfg(test)]
pub(crate) use explore::{spawn, yield_point};

/// A deterministic schedule explorer in the style of loom and CHESS.
///
/// The threads of one run are real threads, but only the one holding the
/// baton runs; it hands the baton on only at a scheduling point. So a run
/// is fixed by the choices made at those points, and [`explore`] walks the
/// tree of choices depth first, replaying a prefix and taking the next
/// untried branch, until every schedule with at most `bound` preemptions
/// has run (switching away from a thread that could go on is a
/// preemption; switching when it waits or ends is free). A run in which
/// every thread still alive is parked in [`wait`] fails the exploration,
/// since no one is left to wake it.
#[cfg(test)]
pub(crate) mod explore {
    use std::any::Any;
    use std::cell::RefCell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
    use std::thread::JoinHandle;

    thread_local! {
        /// The run and thread id of a managed thread.
        static CURRENT: RefCell<Option<(Arc<Run>, usize)>> = const { RefCell::new(None) };
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Status {
        Runnable,
        Waiting,
        Done,
    }

    /// One choice point of a run: the threads it could hand the baton to
    /// (the one that needs no preemption first) and the index of the one
    /// taken.
    #[derive(Clone, Debug, PartialEq)]
    struct Decision {
        alternatives: Vec<usize>,
        taken: usize,
    }

    /// The unwinding payload that ends the threads of a failed run.
    struct Abort;

    #[derive(Default)]
    struct Baton {
        current: Option<usize>,
        status: Vec<Status>,
        /// The decisions to replay, from the previous run.
        script: Vec<Decision>,
        decisions: Vec<Decision>,
        preemptions: usize,
        bound: usize,
        trace: Vec<String>,
        failure: Option<String>,
    }

    #[derive(Default)]
    struct Run {
        baton: Mutex<Baton>,
        turn: Condvar,
        /// Each thread's handle and whether its panic fails the run (a
        /// scenario thread's does; a fold thread's is the catalog's to
        /// handle).
        threads: Mutex<Vec<(JoinHandle<Option<String>>, bool)>>,
    }

    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn current() -> Option<(Arc<Run>, usize)> {
        CURRENT.with(|current| current.borrow().clone())
    }

    /// True on a thread a run manages.
    pub(crate) fn managed() -> bool {
        CURRENT.with(|current| current.borrow().is_some())
    }

    /// A scheduling point: the explorer may switch threads here.
    pub(crate) fn yield_point(point: &'static str) {
        if let Some((run, me)) = current() {
            run.switch(me, point, Status::Runnable);
        }
    }

    /// Parks the calling managed thread until a [`wake_all`].
    pub(crate) fn block() {
        if let Some((run, me)) = current() {
            run.switch(me, "wait", Status::Waiting);
        }
    }

    /// Makes every parked thread of the caller's run runnable again.
    pub(crate) fn wake_all() {
        if let Some((run, _)) = current() {
            let mut baton = lock(&run.baton);
            for status in baton.status.iter_mut().filter(|s| **s == Status::Waiting) {
                *status = Status::Runnable;
            }
        }
    }

    /// Starts `work` as a thread of the caller's run (a `spawn` point), or
    /// as a plain thread outside a run.
    pub(crate) fn spawn(work: impl FnOnce() + Send + 'static) {
        match current() {
            Some((run, me)) => {
                run.start(work, false);
                run.switch(me, "spawn", Status::Runnable);
            }
            None => drop(std::thread::spawn(work)),
        }
    }

    impl Run {
        /// Registers a thread and starts it parked until its first turn.
        fn start(self: &Arc<Self>, work: impl FnOnce() + Send + 'static, checked: bool) {
            let id = {
                let mut baton = lock(&self.baton);
                baton.status.push(Status::Runnable);
                baton.status.len() - 1
            };
            let run = self.clone();
            let handle = std::thread::spawn(move || {
                CURRENT.with(|current| *current.borrow_mut() = Some((run.clone(), id)));
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    run.await_turn(id);
                    work();
                }));
                run.switch(id, "end", Status::Done);
                CURRENT.with(|current| current.borrow_mut().take());
                outcome.err().and_then(panic_message)
            });
            lock(&self.threads).push((handle, checked));
        }

        /// Parks until `me` holds the baton; unwinds if the run failed.
        fn await_turn(&self, me: usize) {
            let mut baton = lock(&self.baton);
            while baton.current != Some(me) && baton.failure.is_none() {
                baton = self
                    .turn
                    .wait(baton)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if baton.failure.is_some() {
                drop(baton);
                panic::resume_unwind(Box::new(Abort));
            }
        }

        /// Thread `me` reaches `point` with `status`: picks who runs next,
        /// then parks `me` until its turn (unless it ended).
        fn switch(&self, me: usize, point: &'static str, status: Status) {
            {
                let mut baton = lock(&self.baton);
                if baton.failure.is_some() {
                    if status == Status::Done {
                        return;
                    }
                    drop(baton);
                    panic::resume_unwind(Box::new(Abort));
                }
                baton.status[me] = status;
                baton.trace.push(format!("t{me} {point}"));
                baton.current = baton.pick(Some(me));
                if baton.current.is_none() && baton.status.contains(&Status::Waiting) {
                    let trace = baton.trace.join(", ");
                    baton.failure = Some(format!("every live thread waits: {trace}"));
                }
                self.turn.notify_all();
            }
            if status != Status::Done {
                self.await_turn(me);
            }
        }
    }

    impl Baton {
        /// The next thread to run after `from` (`None` at the start), or
        /// `None` when no thread can run.
        fn pick(&mut self, from: Option<usize>) -> Option<usize> {
            let stay = from.filter(|&t| self.status[t] == Status::Runnable);
            let mut alternatives: Vec<usize> = stay.into_iter().collect();
            if stay.is_none() || self.preemptions < self.bound {
                alternatives.extend(
                    (0..self.status.len())
                        .filter(|&t| self.status[t] == Status::Runnable && Some(t) != stay),
                );
            }
            let next = match alternatives.len() {
                0 => return None,
                1 => alternatives[0],
                _ => {
                    let index = self.decisions.len();
                    let taken = match self.script.get(index) {
                        Some(replayed) => {
                            assert_eq!(
                                replayed.alternatives, alternatives,
                                "a replayed schedule diverged at decision {index}"
                            );
                            replayed.taken
                        }
                        None => 0,
                    };
                    let next = alternatives[taken];
                    self.decisions.push(Decision {
                        alternatives,
                        taken,
                    });
                    next
                }
            };
            if stay.is_some_and(|t| t != next) {
                self.preemptions += 1;
            }
            Some(next)
        }
    }

    /// The next schedule after one that made `decisions`: the deepest
    /// decision with an untried branch takes it, and the rest run by
    /// default. `None` once every branch was taken.
    fn next_script(mut decisions: Vec<Decision>) -> Option<Vec<Decision>> {
        while let Some(mut last) = decisions.pop() {
            if last.taken + 1 < last.alternatives.len() {
                last.taken += 1;
                decisions.push(last);
                return Some(decisions);
            }
        }
        None
    }

    fn panic_message(payload: Box<dyn Any + Send>) -> Option<String> {
        if payload.is::<Abort>() {
            return None;
        }
        Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "a non-string panic".to_string()),
        )
    }

    /// Managed threads panic on purpose (a test endpoint's fault) and on
    /// a failed run; the explorer reports them with the schedule, so the
    /// default hook stays quiet for them.
    fn quiet_managed_panics() {
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let default = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if !managed() {
                    default(info);
                }
            }));
        });
    }

    /// Runs `threads` against a fresh `setup()` under every schedule with
    /// at most `bound` preemptions, then `check` on the world each run
    /// left. Panics with the schedule's trace when a run deadlocks, a
    /// scenario thread panics or `check` fails. Returns the number of
    /// schedules run.
    pub(crate) fn explore<W: Send + Sync + 'static>(
        bound: usize,
        setup: impl Fn() -> W,
        threads: &[fn(&W)],
        check: impl Fn(&W),
    ) -> usize {
        quiet_managed_panics();
        let mut script = Vec::new();
        let mut schedules = 0;
        loop {
            schedules += 1;
            let world = Arc::new(setup());
            let run = Arc::new(Run::default());
            {
                let mut baton = lock(&run.baton);
                baton.bound = bound;
                baton.script = script;
            }
            for &body in threads {
                let world = world.clone();
                run.start(move || body(&world), true);
            }
            {
                let mut baton = lock(&run.baton);
                baton.current = baton.pick(None);
                run.turn.notify_all();
            }
            let mut failures = Vec::new();
            loop {
                // Popped before joining: a thread being joined may still
                // start a fold thread.
                let next = lock(&run.threads).pop();
                let Some((handle, checked)) = next else { break };
                let panicked = handle.join().expect("a managed thread catches its panics");
                if let (Some(message), true) = (panicked, checked) {
                    failures.push(message);
                }
            }
            let baton = std::mem::take(&mut *lock(&run.baton));
            let trace = baton.trace.join(", ");
            failures.extend(baton.failure);
            if failures.is_empty() {
                let checked = panic::catch_unwind(AssertUnwindSafe(|| check(&world)));
                failures.extend(checked.err().and_then(panic_message));
            }
            assert!(
                failures.is_empty(),
                "schedule {schedules} failed: {failures:?}\nschedule: {trace}"
            );
            match next_script(baton.decisions) {
                Some(next) => script = next,
                None => return schedules,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use super::*;

        /// Two threads of three segments each (to `a`, to `b`, to the
        /// end): with no preemption only the start differs; each
        /// preemption allowed adds switches at the remaining points.
        #[test]
        fn schedules_grow_with_the_preemption_bound() {
            let steps: fn(&()) = |_| {
                yield_point("a");
                yield_point("b");
            };
            let counts: Vec<usize> = (0..4)
                .map(|bound| explore(bound, || (), &[steps, steps], |_| {}))
                .collect();
            assert_eq!(counts[0], 2, "which thread starts");
            assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
            // The 20 interleavings of 3 + 3 segments need at most 4
            // preemptions, and each is one run.
            assert_eq!(explore(4, || (), &[steps, steps], |_| {}), 20);
        }

        /// A thread that waits with no one left to wake it fails the run.
        #[test]
        fn a_run_where_every_live_thread_waits_fails() {
            let stuck: fn(&()) = |_| block();
            let result = panic::catch_unwind(|| explore(2, || (), &[stuck], |_| {}));
            let message = *result.unwrap_err().downcast::<String>().unwrap();
            assert!(message.contains("every live thread waits"), "{message}");
        }

        /// A lost update between a read and a write is found, with the
        /// schedule that shows it.
        #[test]
        fn a_lost_update_is_found() {
            let bump: fn(&AtomicUsize) = |counter| {
                let read = counter.load(Ordering::SeqCst);
                yield_point("read");
                counter.store(read + 1, Ordering::SeqCst);
            };
            let check = |counter: &AtomicUsize| assert_eq!(counter.load(Ordering::SeqCst), 2);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                explore(1, || AtomicUsize::new(0), &[bump, bump], check)
            }));
            let message = *result.unwrap_err().downcast::<String>().unwrap();
            assert!(message.contains("t0 read, t1 read"), "{message}");
        }
    }
}
