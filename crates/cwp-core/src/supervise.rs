//! Reusable supervision primitives: deadline watchdog, delayed release,
//! deterministic backoff, and cooperative cancellation.
//!
//! Extracted from the runner so every supervised execution context in
//! the workspace — the batch [`Runner`](crate::runner::Runner) and the
//! resident `cwp-serve` front end — shares one implementation of the
//! fiddly parts:
//!
//! - [`Supervisor`]: a background thread that tracks in-flight work
//!   keyed by an arbitrary `u64`, expires entries whose deadline has
//!   passed, and releases delayed payloads (retry backoff) when due;
//! - [`backoff_delay`]: the deterministic, seeded exponential backoff
//!   schedule (SplitMix64 jitter — same seed, same stream, same
//!   attempt: same delay);
//! - [`CancelToken`]: a cheap shared flag that long simulation loops
//!   poll so abandoned work stops burning CPU.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cwp_mem::rng::SplitMix64;

// ---------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------

/// The deterministic backoff before retry `attempt` of the given
/// `stream` (a job index, request id, or any stable identifier):
/// `base * 2^(attempt-1)`, jittered by a seeded multiplier in
/// `[0.5, 1.5)`. Same seed, same stream, same attempt — same delay.
pub fn backoff_delay(base: Duration, seed: u64, stream: u64, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
    let seed = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(u64::from(attempt));
    let mut rng = SplitMix64::seed_from_u64(seed);
    exp.mul_f64(0.5 + rng.gen_f64())
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A shared cancellation flag.
///
/// Cloning is cheap (two `Arc`s); all clones observe the same flag.
/// Simulation loops poll [`is_cancelled`](CancelToken::is_cancelled)
/// every few thousand references, so cancellation latency is bounded
/// without per-reference overhead.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Set by [`all_of`](CancelToken::all_of): the token also reads as
    /// cancelled once every one of these has been.
    all_of: Arc<[CancelToken]>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the flag; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// A token that reads as cancelled once *every* one of `members`
    /// has been (or once it is cancelled itself): work shared by several
    /// requests stops only when none of them still wants its result.
    pub fn all_of(members: impl IntoIterator<Item = CancelToken>) -> Self {
        CancelToken {
            flag: Arc::default(),
            all_of: members.into_iter().collect(),
        }
    }

    /// `true` once any clone has called [`cancel`](CancelToken::cancel),
    /// or, for an [`all_of`](CancelToken::all_of) token, once all of its
    /// members are cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || (!self.all_of.is_empty() && self.all_of.iter().all(CancelToken::is_cancelled))
    }
}

// ---------------------------------------------------------------------
// The supervisor thread
// ---------------------------------------------------------------------

/// State shared between supervisor users and its thread.
struct SupervisorState<T> {
    running: HashMap<u64, (Option<Instant>, T)>,
    delayed: Vec<(Instant, T)>,
    shutdown: bool,
}

type Shared<T> = Arc<(Mutex<SupervisorState<T>>, Condvar)>;

/// A watchdog thread over in-flight work.
///
/// Entries are registered under a `u64` key with an optional deadline.
/// When a deadline passes, the entry is removed and the `on_expired`
/// callback fires with its key and payload; the owner discovering its
/// entry gone (via [`complete`](Supervisor::complete) returning `None`)
/// knows it was abandoned. Payloads handed to
/// [`release_after`](Supervisor::release_after) are delivered to the
/// `on_due` callback once their instant passes — the retry-backoff
/// mechanism.
///
/// Callbacks run on the supervisor thread with its lock released, so
/// they may re-enter the supervisor (e.g. re-register work), but they
/// should stay short: a slow callback delays every other expiry.
pub struct Supervisor<T: Clone + Send + 'static> {
    shared: Shared<T>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<T: Clone + Send + 'static> Supervisor<T> {
    /// Spawns the supervisor thread.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread.
    pub fn spawn(
        name: &str,
        on_expired: impl Fn(u64, T) + Send + 'static,
        on_due: impl Fn(T) + Send + 'static,
    ) -> Self {
        let shared: Shared<T> = Arc::new((
            Mutex::new(SupervisorState {
                running: HashMap::new(),
                delayed: Vec::new(),
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || supervisor_loop(&shared, &on_expired, &on_due))
                .expect("spawn supervisor thread")
        };
        Supervisor {
            shared,
            handle: Some(handle),
        }
    }

    /// Tracks `payload` under `key`; a `None` deadline disables expiry
    /// for this entry (it still must be [`complete`]d).
    ///
    /// [`complete`]: Supervisor::complete
    pub fn register(&self, key: u64, deadline: Option<Instant>, payload: T) {
        let (lock, cvar) = &*self.shared;
        lock.lock()
            .expect("supervisor lock")
            .running
            .insert(key, (deadline, payload));
        cvar.notify_one();
    }

    /// Removes the entry for `key`, returning its payload — or `None`
    /// if the supervisor already expired it (the caller was abandoned
    /// and must not act on the work's result).
    pub fn complete(&self, key: u64) -> Option<T> {
        let (lock, _) = &*self.shared;
        lock.lock()
            .expect("supervisor lock")
            .running
            .remove(&key)
            .map(|(_, payload)| payload)
    }

    /// Schedules `payload` for delivery to `on_due` once `at` passes.
    pub fn release_after(&self, at: Instant, payload: T) {
        let (lock, cvar) = &*self.shared;
        lock.lock()
            .expect("supervisor lock")
            .delayed
            .push((at, payload));
        cvar.notify_one();
    }

    /// Stops the supervisor thread. Pending delayed payloads are
    /// dropped; in-flight entries are forgotten. Called automatically
    /// on drop.
    pub fn shutdown(&self) {
        let (lock, cvar) = &*self.shared;
        lock.lock().expect("supervisor lock").shutdown = true;
        cvar.notify_all();
    }
}

impl<T: Clone + Send + 'static> Drop for Supervisor<T> {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<T: Clone + Send + 'static> std::fmt::Debug for Supervisor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (lock, _) = &*self.shared;
        let state = lock.lock().expect("supervisor lock");
        f.debug_struct("Supervisor")
            .field("running", &state.running.len())
            .field("delayed", &state.delayed.len())
            .finish()
    }
}

fn supervisor_loop<T: Clone + Send>(
    shared: &Shared<T>,
    on_expired: &(impl Fn(u64, T) + Send),
    on_due: &(impl Fn(T) + Send),
) {
    let (lock, cvar) = &**shared;
    let mut state = lock.lock().expect("supervisor lock");
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        // Expire deadlines: remove the entry (abandoning its owner) and
        // collect the payload for the callback.
        let expired_keys: Vec<u64> = state
            .running
            .iter()
            .filter(|(_, (deadline, _))| deadline.is_some_and(|d| d <= now))
            .map(|(k, _)| *k)
            .collect();
        let mut expired = Vec::with_capacity(expired_keys.len());
        for key in expired_keys {
            if let Some((_, payload)) = state.running.remove(&key) {
                expired.push((key, payload));
            }
        }
        // Collect delayed payloads whose release time has passed.
        let mut due = Vec::new();
        state.delayed.retain(|(at, payload)| {
            if *at <= now {
                due.push(payload.clone());
                false
            } else {
                true
            }
        });
        if !expired.is_empty() || !due.is_empty() {
            // Run callbacks unlocked so they may re-enter the
            // supervisor (re-registering retries, for example).
            drop(state);
            for (key, payload) in expired {
                on_expired(key, payload);
            }
            for payload in due {
                on_due(payload);
            }
            state = lock.lock().expect("supervisor lock");
            continue;
        }
        // Sleep until the next deadline or release, or until notified.
        let next = state
            .running
            .values()
            .filter_map(|(deadline, _)| *deadline)
            .chain(state.delayed.iter().map(|(at, _)| *at))
            .min();
        state = match next {
            Some(at) => {
                let wait = at.saturating_duration_since(Instant::now());
                cvar.wait_timeout(state, wait.max(Duration::from_millis(1)))
                    .expect("supervisor lock")
                    .0
            }
            None => cvar.wait(state).expect("supervisor lock"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn backoff_is_deterministic_grows_and_jitters_per_stream() {
        let base = Duration::from_millis(250);
        let d1 = backoff_delay(base, 7, 3, 1);
        let d2 = backoff_delay(base, 7, 3, 2);
        assert_eq!(d1, backoff_delay(base, 7, 3, 1), "same inputs, same delay");
        assert!(d2 > d1, "attempt 2 backs off longer: {d1:?} vs {d2:?}");
        assert_ne!(
            backoff_delay(base, 7, 4, 1),
            d1,
            "different streams jitter differently"
        );
        // The jitter multiplier stays in [0.5, 1.5).
        assert!(d1 >= base / 2 && d1 < base * 3 / 2);
    }

    #[test]
    fn backoff_attempt_exponent_saturates() {
        let base = Duration::from_millis(1);
        let huge = backoff_delay(base, 0, 0, u32::MAX);
        assert!(huge <= base.saturating_mul(1 << 16).mul_f64(1.5));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn an_all_of_token_trips_only_when_every_member_has() {
        let (a, b) = (CancelToken::new(), CancelToken::new());
        let both = CancelToken::all_of([a.clone(), b.clone()]);
        a.cancel();
        assert!(!both.is_cancelled(), "b still wants the work");
        b.cancel();
        assert!(both.is_cancelled());
        let own = CancelToken::all_of([CancelToken::new()]);
        own.cancel();
        assert!(
            own.is_cancelled(),
            "cancelling the token itself still counts"
        );
    }

    #[test]
    fn expired_entries_are_abandoned_and_reported() {
        let (tx, rx) = mpsc::channel();
        let sup: Supervisor<&'static str> = Supervisor::spawn(
            "test-sup-expire",
            move |key, payload| {
                tx.send((key, payload)).unwrap();
            },
            |_| {},
        );
        sup.register(42, Some(Instant::now() + Duration::from_millis(20)), "late");
        let (key, payload) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((key, payload), (42, "late"));
        assert_eq!(
            sup.complete(42),
            None,
            "owner of an expired entry is abandoned"
        );
    }

    #[test]
    fn completed_entries_never_expire() {
        let (tx, rx) = mpsc::channel();
        let sup: Supervisor<u32> = Supervisor::spawn(
            "test-sup-complete",
            move |key, _| {
                tx.send(key).unwrap();
            },
            |_| {},
        );
        sup.register(1, Some(Instant::now() + Duration::from_millis(50)), 10);
        assert_eq!(sup.complete(1), Some(10));
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "completed entry must not fire on_expired"
        );
    }

    #[test]
    fn delayed_payloads_are_released_when_due() {
        let (tx, rx) = mpsc::channel();
        let sup: Supervisor<u32> = Supervisor::spawn(
            "test-sup-due",
            |_, _| {},
            move |p| {
                tx.send(p).unwrap();
            },
        );
        let now = Instant::now();
        sup.release_after(now + Duration::from_millis(40), 2);
        sup.release_after(now + Duration::from_millis(5), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 2);
    }

    #[test]
    fn cancel_is_idempotent_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        token.cancel(); // double-cancel must be a harmless no-op
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn backoff_bounds_hold_for_every_seed_stream_and_attempt() {
        let base = Duration::from_millis(10);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..25u64 {
            for stream in 0..4u64 {
                for attempt in 1..=6u32 {
                    let exp = base * (1 << (attempt - 1));
                    let delay = backoff_delay(base, seed, stream, attempt);
                    assert_eq!(
                        delay,
                        backoff_delay(base, seed, stream, attempt),
                        "backoff must be deterministic for {seed}/{stream}/{attempt}"
                    );
                    assert!(
                        delay >= exp / 2 && delay < exp * 3 / 2,
                        "{seed}/{stream}/{attempt}: {delay:?} outside [{:?}, {:?})",
                        exp / 2,
                        exp * 3 / 2
                    );
                    distinct.insert(delay);
                }
            }
        }
        // Jitter must actually spread the schedule, not collapse it.
        assert!(
            distinct.len() > 300,
            "only {} distinct delays",
            distinct.len()
        );
    }

    #[test]
    fn settling_a_racing_deadline_has_exactly_one_winner_per_key() {
        const KEYS: u64 = 200;
        let expired = Arc::new(Mutex::new(Vec::new()));
        let sup: Supervisor<u64> = Supervisor::spawn(
            "test-sup-race",
            {
                let expired = Arc::clone(&expired);
                move |key, _| expired.lock().expect("expired lock").push(key)
            },
            |_| {},
        );
        let now = Instant::now();
        for key in 0..KEYS {
            // Deadlines staggered right around "now" so completion
            // genuinely races expiry.
            sup.register(key, Some(now + Duration::from_micros(500 * (key % 8))), key);
        }
        let completed: Vec<u64> = (0..KEYS).filter(|k| sup.complete(*k).is_some()).collect();
        // Every key not completed must eventually expire; none may do
        // both, none may vanish.
        let give_up = Instant::now() + Duration::from_secs(5);
        loop {
            let expired_so_far = expired.lock().expect("expired lock").len();
            if expired_so_far + completed.len() == KEYS as usize {
                break;
            }
            assert!(
                Instant::now() < give_up,
                "lost keys: {} completed + {expired_so_far} expired of {KEYS}",
                completed.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let expired = expired.lock().expect("expired lock");
        for key in 0..KEYS {
            let was_completed = completed.contains(&key);
            let was_expired = expired.contains(&key);
            assert!(
                was_completed ^ was_expired,
                "key {key}: completed={was_completed} expired={was_expired}"
            );
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_drops_pending_releases() {
        let (tx, rx) = mpsc::channel();
        let sup: Supervisor<u32> = Supervisor::spawn(
            "test-sup-shutdown",
            |_, _| {},
            move |p| {
                let _ = tx.send(p);
            },
        );
        sup.release_after(Instant::now() + Duration::from_millis(30), 7);
        sup.shutdown();
        sup.shutdown(); // second shutdown must be a no-op
        assert!(
            rx.recv_timeout(Duration::from_millis(150)).is_err(),
            "a pending release must be dropped on shutdown"
        );
        // The state map stays usable after shutdown (Engine::drop calls
        // shutdown after a drain already stopped the supervisor).
        sup.register(1, None, 0);
        assert_eq!(sup.complete(1), Some(0));
    }

    #[test]
    fn entries_without_deadlines_wait_forever() {
        let (tx, rx) = mpsc::channel();
        let sup: Supervisor<u32> = Supervisor::spawn(
            "test-sup-nodeadline",
            move |key, _| {
                tx.send(key).unwrap();
            },
            |_| {},
        );
        sup.register(9, None, 0);
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(sup.complete(9), Some(0));
    }
}
