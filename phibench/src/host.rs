//! Host speed, read off a fixed reference kernel timed between operations.
//!
//! Other tenants of the host slow this process down by up to 1.7× for
//! stretches of a second to minutes, in CPU time as well as wall time, so
//! a run's raw times hang on which stretch it landed in. The benchmark
//! takes a reading of the kernel's time before the first operation and
//! after every operation (or block of `pool_1e5` cycles), and reads the
//! operation's time at reference speed: its wall time × [`REF_MS`] ÷ the
//! mean of the two readings around it.
//!
//! The kernel uses only the standard library, so no change to the
//! simulator can move it. It does what the simulator does most: an
//! ordered map and a hash map under churn, and a heap-driven event loop
//! over hashed entities with small allocations. On the baseline host, on
//! a busy stretch, `table2` cells read against it spread 3.5 % over 20 s
//! windows, against 15 % as measured. A pointer chase over 8 MiB, tried as
//! a third part, slowed only half as much as the cells in log terms, and
//! with it the spread was 5 %.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the baseline host, milliseconds: times
/// read at reference speed are what that host takes at its usual speed.
pub const REF_MS: f64 = 28.0;

const MAP_STEPS: u64 = 75_000;
const MAP_LIVE: usize = 20_000;
const EVENT_STEPS: u64 = 100_000;
const ENTITIES: u32 = 4_000;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// An ordered map of pending keys and a hash map of buckets, both churned.
fn maps() -> u64 {
    let mut pending: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let (mut x, mut acc) = (12_345u64, 0u64);
    for i in 0..MAP_STEPS {
        x = lcg(x);
        pending.insert((x >> 40, i), i);
        buckets.entry(x % 4_096).or_default().push(i);
        if pending.len() > MAP_LIVE {
            let ((key, _), v) = pending.pop_first().expect("map is not empty");
            acc = acc.wrapping_add(key + v);
            if let Some(b) = buckets.get_mut(&(key % 4_096)) {
                b.pop();
            }
        }
    }
    acc + buckets.len() as u64
}

struct Entity {
    load: u64,
    history: Vec<u32>,
    name: String,
}

/// A discrete-event loop: pop the earliest event, update its entity
/// (sometimes renaming it, which allocates), schedule its next event.
fn events() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut entities = HashMap::new();
    for e in 0..ENTITIES {
        heap.push(Reverse((u64::from(e), e)));
        let name = format!("slot{e}@node{}", e / 4);
        entities.insert(
            e,
            Entity {
                load: 0,
                history: Vec::new(),
                name,
            },
        );
    }
    let (mut x, mut acc) = (99u64, 0u64);
    for _ in 0..EVENT_STEPS {
        let Reverse((t, e)) = heap.pop().expect("every entity has an event");
        x = lcg(x);
        let ent = entities.get_mut(&e).expect("entity exists");
        ent.load = ent.load.wrapping_add(x >> 50);
        ent.history.push((x >> 33) as u32);
        if ent.history.len() > 16 {
            ent.history.sort_unstable();
            acc = acc.wrapping_add(u64::from(ent.history[8]));
            ent.history.clear();
        }
        if x.is_multiple_of(64) {
            ent.name = format!("slot{e}@node{}#{}", e / 4, ent.load % 97);
            acc = acc.wrapping_add(ent.name.len() as u64);
        }
        heap.push(Reverse((t + 1 + (x >> 54), e)));
    }
    acc
}

/// Pin this process, and the worker processes it starts later, to the
/// core it runs on now, and return that core. The cores of a shared host
/// slow down separately, so the kernel must run on the core the
/// operations run on: unpinned, a sharded sweep's worker can land on the
/// other core, and the readings around it then miss its slowdowns.
pub fn pin_to_one_core() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a number.
    let core = unsafe { sched_getcpu() };
    let core = usize::try_from(core)
        .ok()
        .filter(|&c| c < 1024)
        .ok_or_else(|| format!("sched_getcpu failed ({core})"))?;
    // A `cpu_set_t` of 1024 bits with only `core` set.
    let mut mask = [0u64; 16];
    mask[core / 64] |= 1 << (core % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the call only reads; pid 0 is this thread, and threads
    // and processes started later inherit its mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "cannot pin to core {core}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(core)
}

/// An operation's wall time and the factor that reads it at reference
/// speed.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_ms: f64,
    pub scale: f64,
}

impl Timed {
    /// The time at reference speed, milliseconds.
    pub fn ms(self) -> f64 {
        self.wall_ms * self.scale
    }
}

/// The reference kernel and the times it took.
pub struct Host {
    /// Kernel runs per reading of the host's speed.
    runs: usize,
    /// The last reading: the median of its kernel runs, milliseconds.
    last_ms: f64,
    /// Every kernel run's time, milliseconds.
    kernel_ms: Vec<f64>,
}

impl Host {
    /// Take a first reading. Each reading takes the median of `runs`
    /// kernel runs.
    pub fn new(runs: usize) -> Host {
        let mut host = Host {
            runs: runs.max(1),
            last_ms: 0.0,
            kernel_ms: Vec::new(),
        };
        host.last_ms = host.reading();
        host
    }

    fn kernel(&mut self) -> f64 {
        let t = Instant::now();
        black_box(maps() ^ events());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.kernel_ms.push(ms);
        ms
    }

    fn reading(&mut self) -> f64 {
        let runs: Vec<f64> = (0..self.runs).map(|_| self.kernel()).collect();
        crate::stats::median(&runs)
    }

    /// Run `op`, then take a reading. Returns the op's result and its
    /// wall time, read at reference speed against the readings just
    /// before and after it.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_ms;
        let t = Instant::now();
        let value = op();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        self.last_ms = self.reading();
        let scale = 2.0 * REF_MS / (before + self.last_ms);
        (value, Timed { wall_ms, scale })
    }

    /// Median kernel run so far, milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        crate::stats::median(&self.kernel_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        assert_eq!(maps(), maps());
        assert_eq!(events(), events());
    }

    #[test]
    fn times_are_read_at_reference_speed() {
        let mut host = Host::new(3);
        assert_eq!(host.kernel_ms.len(), 3);
        // Readings taking exactly REF_MS leave a time as it is.
        host.last_ms = REF_MS;
        let (v, t) = host.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert_eq!(host.kernel_ms.len(), 6);
        assert!(t.wall_ms >= 2.0, "{t:?}");
        assert_eq!(t.scale, 2.0 * REF_MS / (REF_MS + host.last_ms));
        assert_eq!(t.ms(), t.wall_ms * t.scale);
        assert!(host.kernel_ms() > 0.0);
    }
}
