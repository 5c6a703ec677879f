//! Seeded input generation: the benchmark's own random numbers and Zipf
//! sampler, so the same `--seed` gives byte-identical inputs whatever
//! the repo's generators do. Inputs are built before any timing starts.

/// SplitMix64: small, fast, and good enough to drive a load generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Zipf ranks `1..=n` with exponent `s` by rejection-inversion
/// (Hörmann & Derflinger 1996): constant time per draw and no table,
/// so the generator adds nothing to the process's peak memory.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0 && s != 1.0, "need n >= 1 and 0 < s != 1");
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.threshold = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
    }

    fn h_integral_inv(&self, y: f64) -> f64 {
        (1.0 + y * (1.0 - self.s))
            .max(0.0)
            .powf(1.0 / (1.0 - self.s))
    }

    /// One rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }
}

/// A key stream: Zipf ranks scrambled into 64-bit keys, so hot keys are
/// not small integers and a different seed makes different keys hot.
#[derive(Clone, Debug)]
pub struct KeyStream {
    zipf: Zipf,
    rng: Rng,
    salt: u64,
}

impl KeyStream {
    /// `universe` names the key universe (streams sharing it draw the
    /// same keys with the same popularity); `seed` drives this stream's
    /// draws.
    pub fn new(keys: u64, s: f64, universe: u64, seed: u64) -> Self {
        KeyStream {
            zipf: Zipf::new(keys, s),
            rng: Rng::new(seed),
            salt: mix64(universe ^ 0x5a17),
        }
    }

    pub fn next_key(&mut self) -> u64 {
        mix64(self.zipf.sample(&mut self.rng).wrapping_add(self.salt))
    }
}

/// The weight every generator attaches to a key (1..=3, a function of
/// the key, as the repo's own load generator does).
pub fn weight_of(key: u64) -> u64 {
    1 + key % 3
}

/// One pre-generated update frame, bound to the object it is sent to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub object: u32,
    pub items: Vec<(u64, u64)>,
    /// Sum of the item weights: what an acknowledgement adds to the
    /// object's stream length.
    pub weight: u64,
}

/// What one client operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Send frame `frame` of the workload's pool.
    Write { frame: u32 },
    /// Query `key` on `object`.
    Read { object: u32, key: u64 },
}

/// When an actor issues its operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// The next operation starts when the previous one completes.
    Closed,
    /// Operation `k` is due `phase_ns + k * period_ns` after the window
    /// opens, whatever the previous one did, and is timed from then.
    Open { period_ns: u64, phase_ns: u64 },
}

/// One client thread's script: a cyclic list of operations and a pace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub ops: Vec<Op>,
    pub pacing: Pacing,
    /// A second, slow stream the same thread weaves into a closed loop:
    /// operation `k` of `trickle.0` is due `k * trickle.1` ns after the
    /// window opens, is sent as soon as the operation in flight has
    /// completed, and is timed from its due time.
    pub trickle: Option<(Vec<Op>, u64)>,
}

/// Everything a workload sends, generated from the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub frames: Vec<Frame>,
    pub plans: Vec<Plan>,
    /// Keys the correctness gate samples on the CountMin (object 0).
    pub gate_keys: Vec<u64>,
}

impl Inputs {
    /// A canonical byte rendering, for the determinism self-test and
    /// for fingerprinting a run's inputs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(self.frames.len() as u64);
        for f in &self.frames {
            put(f.object as u64);
            put(f.weight);
            put(f.items.len() as u64);
            for &(k, w) in &f.items {
                put(k);
                put(w);
            }
        }
        put(self.plans.len() as u64);
        for p in &self.plans {
            match p.pacing {
                Pacing::Closed => put(0),
                Pacing::Open {
                    period_ns,
                    phase_ns,
                } => {
                    put(1);
                    put(period_ns);
                    put(phase_ns);
                }
            }
            let trickle = p.trickle.as_ref();
            put(trickle.map_or(0, |(_, period_ns)| *period_ns));
            put(p.ops.len() as u64);
            for op in p.ops.iter().chain(trickle.iter().flat_map(|(ops, _)| ops)) {
                match *op {
                    Op::Write { frame } => {
                        put(0);
                        put(frame as u64);
                    }
                    Op::Read { object, key } => {
                        put(1);
                        put(object as u64);
                        put(key);
                    }
                }
            }
        }
        put(self.gate_keys.len() as u64);
        for &k in &self.gate_keys {
            put(k);
        }
        out
    }

    /// FNV-1a of [`to_bytes`](Self::to_bytes).
    pub fn fingerprint(&self) -> u64 {
        self.to_bytes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// Builds one frame of `len` Zipf items for `object`.
pub fn frame(keys: &mut KeyStream, object: u32, len: usize) -> Frame {
    let items: Vec<(u64, u64)> = (0..len)
        .map(|_| {
            let k = keys.next_key();
            (k, weight_of(k))
        })
        .collect();
    Frame {
        object,
        weight: items.iter().map(|&(_, w)| w).sum(),
        items,
    }
}

/// The exact side of the correctness gate: how often each pool frame
/// was acknowledged, from which exact stream lengths and exact per-key
/// counts follow.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    acks: Vec<u64>,
}

impl Ledger {
    pub fn new(frames: usize) -> Self {
        Ledger {
            acks: vec![0; frames],
        }
    }

    pub fn ack(&mut self, frame: u32) {
        self.acks[frame as usize] += 1;
    }

    pub fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in self.acks.iter_mut().zip(&other.acks) {
            *mine += theirs;
        }
    }

    /// Acknowledged weight per object id.
    pub fn observed(&self, frames: &[Frame], objects: usize) -> Vec<u64> {
        let mut out = vec![0u64; objects];
        for (f, &n) in frames.iter().zip(&self.acks) {
            out[f.object as usize] += n * f.weight;
        }
        out
    }

    /// Exact acknowledged count of each of `keys` on `object`.
    pub fn exact_counts(&self, frames: &[Frame], object: u32, keys: &[u64]) -> Vec<u64> {
        let index: std::collections::HashMap<u64, usize> =
            keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut out = vec![0u64; keys.len()];
        for (f, &n) in frames.iter().zip(&self.acks) {
            if f.object != object || n == 0 {
                continue;
            }
            for &(k, w) in &f.items {
                if let Some(&i) = index.get(&k) {
                    out[i] += n * w;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_stay_in_range_and_skew_to_the_head() {
        let z = Zipf::new(1 << 20, 1.1);
        let mut rng = Rng::new(7);
        let n = 200_000;
        let mut ones = 0;
        let mut top16 = 0;
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1..=1 << 20).contains(&k));
            ones += (k == 1) as u32;
            top16 += (k <= 16) as u32;
        }
        // P(1) = 1/H with H = sum k^-1.1 over 2^20 ranks ≈ 8.1; the top
        // sixteen ranks carry about a third of the mass.
        let p1 = ones as f64 / n as f64;
        assert!((0.11..0.14).contains(&p1), "P(rank 1) = {p1}");
        let p16 = top16 as f64 / n as f64;
        assert!((0.30..0.40).contains(&p16), "P(rank <= 16) = {p16}");
    }

    #[test]
    fn zipf_handles_a_tiny_alphabet() {
        let z = Zipf::new(1, 1.1);
        let mut rng = Rng::new(1);
        assert!((0..100).all(|_| z.sample(&mut rng) == 1));
    }

    #[test]
    fn ledger_reproduces_exact_counts() {
        let frames = vec![
            Frame {
                object: 0,
                items: vec![(5, 2), (9, 1), (5, 2)],
                weight: 5,
            },
            Frame {
                object: 1,
                items: vec![(5, 3)],
                weight: 3,
            },
        ];
        let mut a = Ledger::new(2);
        a.ack(0);
        a.ack(0);
        let mut b = Ledger::new(2);
        b.ack(0);
        b.ack(1);
        a.merge(&b);
        assert_eq!(a.observed(&frames, 2), vec![15, 3]);
        assert_eq!(a.exact_counts(&frames, 0, &[5, 9, 77]), vec![12, 3, 0]);
        assert_eq!(a.exact_counts(&frames, 1, &[5]), vec![3]);
    }
}
