//! Seeded input generation: the RNG, the Zipf sampler and the `load_mix`
//! transcript. Everything here is a pure function of the seed, and none of
//! it comes from `wsmed-trafficgen`: the benchmark owns its inputs so that
//! a change to the program cannot change what is measured.

/// SplitMix64: small, fast, and good enough for workload draws.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, label)`, so adding a stream never
    /// shifts the draws of another.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n` with weight `1/(rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability of rank 0.
    pub fn head_probability(&self) -> f64 {
        self.cdf[0]
    }
}

/// The three state/distance-parameterised paper shapes `load_mix` poses.
const Q1_DISTANCE: &str = "\
    Select gl.placename, gl.state \
    From GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl \
    Where gs.State=gp.state and gp.distance={} \
      and gp.placeTypeToFind='City' and gp.place='Atlanta' \
      and gl.placeName=gp.ToPlace+', '+gp.ToState \
      and gl.MaxItems=100 and gl.imagePresence='true'";
const Q2_STATE: &str = "\
    select gp.ToState, gp.zip \
    From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
    Where gi.USState='{}' and gi.GetInfoByStateResult=gc.zipstr \
      and gc.zipcode=gp.zip and gp.ToPlace='USAF Academy'";
const Q3_STATE: &str = "\
    select d.FlightNo, a.Code, fs.DelayMinutes \
    From GetAllStates gs, GetAirports a, GetDepartures d, GetFlightStatus fs \
    Where a.stateAbbr='{}' and a.Code = d.airportCode \
      and d.FlightNo = fs.flightNo and fs.Status = 'Delayed' \
    order by d.FlightNo";

/// Query1 search radii, most popular first.
const DISTANCES: [&str; 6] = ["15.0", "10.0", "25.0", "5.0", "40.0", "60.0"];
/// Shape mix: Query1 20 %, Query2 50 %, Query3 30 %.
const MIX: [f64; 3] = [0.2, 0.5, 0.3];
pub const ZIPF_S: f64 = 1.1;
pub const TENANTS: usize = 4;

/// One scheduled query of the open loop.
pub struct Injection {
    /// When the query is due, in nanoseconds from the start of the run.
    pub due_ns: u64,
    pub tenant: usize,
    /// Index into [`Mix::sqls`].
    pub sql: usize,
}

/// The whole open-loop transcript: distinct SQL texts and the schedule.
pub struct Mix {
    pub sqls: Vec<String>,
    pub injections: Vec<Injection>,
}

impl Mix {
    /// `rate * seconds` arrivals at independent uniform times (a Poisson
    /// process conditioned on its count, so that every seed offers exactly
    /// `rate`), each with a uniform tenant, a shape from [`MIX`] and a
    /// Zipf-drawn parameter over a seeded popularity shuffle of `states`.
    pub fn generate(seed: u64, states: &[String], rate: f64, seconds: f64) -> Mix {
        let mut popularity = states.to_vec();
        let mut shuffle = Rng::stream(seed, "popularity");
        for i in (1..popularity.len()).rev() {
            popularity.swap(i, shuffle.below(i + 1));
        }
        let state_zipf = Zipf::new(popularity.len(), ZIPF_S);
        let distance_zipf = Zipf::new(DISTANCES.len(), ZIPF_S);

        let mut arrivals = Rng::stream(seed, "arrivals");
        let mut due: Vec<u64> = (0..(rate * seconds).round() as usize)
            .map(|_| (arrivals.next_f64() * seconds * 1e9) as u64)
            .collect();
        due.sort_unstable();

        let mut draws = Rng::stream(seed, "draws");
        let mut sqls: Vec<String> = Vec::new();
        let mut injections = Vec::with_capacity(due.len());
        for due_ns in due {
            let tenant = draws.below(TENANTS);
            let shape = draws.next_f64();
            let text = if shape < MIX[0] {
                Q1_DISTANCE.replace("{}", DISTANCES[distance_zipf.sample(&mut draws)])
            } else {
                let state = &popularity[state_zipf.sample(&mut draws)];
                let template = if shape < MIX[0] + MIX[1] {
                    Q2_STATE
                } else {
                    Q3_STATE
                };
                template.replace("{}", state)
            };
            let sql = match sqls.iter().position(|s| *s == text) {
                Some(i) => i,
                None => {
                    sqls.push(text);
                    sqls.len() - 1
                }
            };
            injections.push(Injection {
                due_ns,
                tenant,
                sql,
            });
        }
        Mix { sqls, injections }
    }

    /// One line per injection; equal transcripts mean equal workloads.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        for inj in &self.injections {
            out.push_str(&format!(
                "{}|t{}|{}\n",
                inj.due_ns, inj.tenant, self.sqls[inj.sql]
            ));
        }
        out
    }
}
