//! Deterministic synthetic US geography.
//!
//! The operators under study care about *cardinalities* and *latencies*,
//! not about real coordinates, so the data is synthesized from a seed:
//!
//! * 51 states (50 + DC) with fixed names/abbreviations;
//! * a subset of states contain a city named **Atlanta** with a handful of
//!   neighbor places within 15 km (drives Query1: ≈ 40 states × ≈ 6.4
//!   matching neighbors ⇒ > 300 web service calls, ≈ 360 result tuples);
//! * every state has `zips_per_state` zip code areas, each containing one
//!   to three places; Colorado's zip **80840** contains **USAF Academy**
//!   (drives Query2: 51 × 100 ⇒ > 5000 calls, as in §I/§II.B).

use std::collections::HashMap;

use wsmed_netsim::{fnv1a, DetRng};

/// One US state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateInfo {
    /// Full name, e.g. `"Colorado"`.
    pub name: String,
    /// Two-letter abbreviation, e.g. `"CO"` — the join key used by all
    /// services (`gs.State = gp.state`, `gs.State = gi.USState`).
    pub abbr: String,
    /// Latitude of the state centroid, degrees.
    pub lat: f64,
    /// Longitude of the state centroid, degrees.
    pub lon: f64,
}

/// A neighbor place returned by `GetPlacesWithin`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Neighbor {
    pub name: String,
    pub state_abbr: String,
    pub distance_km: f64,
    /// `"City"` or `"Town"` — `GetPlacesWithin` filters on this.
    pub kind: &'static str,
}

/// A row of `GetPlaceList` output (TerraService place facts).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceFact {
    /// Place name.
    pub placename: String,
    /// State abbreviation.
    pub state: String,
    /// Country (always `"United States"` here).
    pub country: String,
    /// Latitude, degrees.
    pub place_lat: f64,
    /// Longitude, degrees.
    pub place_lon: f64,
    /// TerraServer theme bitmask.
    pub available_theme_mask: i64,
    /// TerraServer place-type id.
    pub place_type_id: i64,
    /// Population estimate.
    pub population: i64,
    /// Whether an associated map image exists (`imagePresence` filter).
    pub has_image: bool,
}

/// A zip code area with the places inside it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ZipArea {
    pub zip: String,
    pub state_abbr: String,
    /// `(place name, distance from zip origin)`.
    pub places: Vec<(String, f64)>,
}

/// Tuning knobs for the synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Seed for all generated content.
    pub seed: u64,
    /// How many states get an Atlanta anchor city.
    pub atlanta_state_count: usize,
    /// Minimum neighbors around each Atlanta anchor.
    pub min_neighbors: usize,
    /// Maximum neighbors around each Atlanta anchor.
    pub max_neighbors: usize,
    /// Zip code areas per state.
    pub zips_per_state: usize,
    /// Population multiplier applied to every per-state entity count (zip
    /// areas, airports, Atlanta neighbors). Per-parent fan-outs whose
    /// parent already scales (departures per airport) keep their base
    /// draw, so total flights grow linearly with `scale` through the
    /// airport population rather than quadratically. `1` reproduces the
    /// base dataset byte-for-byte; `100`–`1000` grow the world for
    /// open-loop load experiments while keeping referential integrity.
    pub scale: usize,
    /// Fractional seeded jitter on scaled counts: each entity's count is
    /// multiplied by a deterministic factor in `[1 - j, 1 + j]`, so scaled
    /// worlds are not perfectly uniform. `0.0` (the default) draws nothing
    /// and keeps base datasets byte-identical.
    pub count_jitter: f64,
}

impl DatasetConfig {
    /// The paper-scale configuration: Query1 > 300 calls / ≈ 360 tuples,
    /// Query2 > 5000 calls.
    pub fn paper() -> Self {
        DatasetConfig {
            seed: 0x0A71_A27A,
            atlanta_state_count: 40,
            min_neighbors: 5,
            max_neighbors: 11,
            zips_per_state: 100,
            scale: 1,
            count_jitter: 0.0,
        }
    }

    /// A scaled-down configuration for tests and fast benchmark sweeps
    /// (Query2 shrinks from > 5000 calls to ≈ 600).
    pub fn small() -> Self {
        DatasetConfig {
            zips_per_state: 12,
            ..DatasetConfig::paper()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        DatasetConfig {
            seed: 7,
            atlanta_state_count: 6,
            min_neighbors: 2,
            max_neighbors: 4,
            zips_per_state: 3,
            scale: 1,
            count_jitter: 0.0,
        }
    }

    /// Returns this configuration with the population multiplier set.
    pub fn scaled(self, scale: usize) -> Self {
        DatasetConfig {
            scale: scale.max(1),
            ..self
        }
    }

    /// Returns this configuration with seeded count jitter set
    /// (clamped to `[0, 0.9]` so counts stay positive).
    pub fn with_jitter(self, count_jitter: f64) -> Self {
        DatasetConfig {
            count_jitter: count_jitter.clamp(0.0, 0.9),
            ..self
        }
    }

    /// The deterministic per-entity count for a base count of `base`:
    /// `base × scale`, perturbed by the seeded jitter factor for `key`.
    /// With `scale == 1` and `count_jitter == 0` this is exactly `base`
    /// and draws nothing, keeping base datasets byte-identical.
    fn scaled_count(&self, base: usize, kind: &str, key: &str) -> usize {
        if self.scale <= 1 && self.count_jitter == 0.0 {
            return base;
        }
        let mut n = (base * self.scale.max(1)) as f64;
        if self.count_jitter > 0.0 {
            let mut rng = DetRng::keyed(
                self.seed,
                "count-jitter",
                fnv1a(kind.as_bytes()) ^ fnv1a(key.as_bytes()).rotate_left(17),
            );
            n *= 1.0 + rng.uniform(-self.count_jitter, self.count_jitter);
        }
        (n.round() as usize).max(1)
    }

    /// The deterministic jitter-only count for `base`: perturbed by the
    /// seeded jitter factor for `key` but *not* multiplied by `scale`.
    /// Used for per-parent fan-outs (departures per airport) whose parent
    /// population already scales — scaling both would grow totals
    /// quadratically in `scale`.
    fn jittered_count(&self, base: usize, kind: &str, key: &str) -> usize {
        if self.count_jitter == 0.0 {
            return base;
        }
        let mut rng = DetRng::keyed(
            self.seed,
            "count-jitter",
            fnv1a(kind.as_bytes()) ^ fnv1a(key.as_bytes()).rotate_left(17),
        );
        let n = base as f64 * (1.0 + rng.uniform(-self.count_jitter, self.count_jitter));
        (n.round() as usize).max(1)
    }

    /// An upper bound on any per-state zip-area count under this config
    /// (used to size the zip numbering span so zips stay globally unique).
    fn max_zip_count_bound(&self) -> usize {
        let n = (self.zips_per_state * self.scale.max(1)) as f64 * (1.0 + self.count_jitter);
        n.ceil() as usize + 1
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig::paper()
    }
}

const STATE_TABLE: &[(&str, &str, f64, f64)] = &[
    ("Alabama", "AL", 32.8, -86.8),
    ("Alaska", "AK", 64.0, -152.0),
    ("Arizona", "AZ", 34.2, -111.6),
    ("Arkansas", "AR", 34.9, -92.4),
    ("California", "CA", 37.2, -119.3),
    ("Colorado", "CO", 39.0, -105.5),
    ("Connecticut", "CT", 41.6, -72.7),
    ("Delaware", "DE", 38.9, -75.5),
    ("District of Columbia", "DC", 38.9, -77.0),
    ("Florida", "FL", 28.6, -82.4),
    ("Georgia", "GA", 32.6, -83.4),
    ("Hawaii", "HI", 20.3, -156.4),
    ("Idaho", "ID", 44.4, -114.6),
    ("Illinois", "IL", 40.0, -89.2),
    ("Indiana", "IN", 39.9, -86.3),
    ("Iowa", "IA", 42.1, -93.5),
    ("Kansas", "KS", 38.5, -98.4),
    ("Kentucky", "KY", 37.5, -85.3),
    ("Louisiana", "LA", 31.0, -92.0),
    ("Maine", "ME", 45.4, -69.2),
    ("Maryland", "MD", 39.0, -76.8),
    ("Massachusetts", "MA", 42.3, -71.8),
    ("Michigan", "MI", 44.3, -85.4),
    ("Minnesota", "MN", 46.3, -94.3),
    ("Mississippi", "MS", 32.7, -89.7),
    ("Missouri", "MO", 38.4, -92.5),
    ("Montana", "MT", 47.1, -109.6),
    ("Nebraska", "NE", 41.5, -99.8),
    ("Nevada", "NV", 39.3, -116.6),
    ("New Hampshire", "NH", 43.7, -71.6),
    ("New Jersey", "NJ", 40.2, -74.7),
    ("New Mexico", "NM", 34.4, -106.1),
    ("New York", "NY", 42.9, -75.5),
    ("North Carolina", "NC", 35.5, -79.4),
    ("North Dakota", "ND", 47.4, -100.5),
    ("Ohio", "OH", 40.3, -82.8),
    ("Oklahoma", "OK", 35.6, -97.5),
    ("Oregon", "OR", 43.9, -120.6),
    ("Pennsylvania", "PA", 40.9, -77.8),
    ("Rhode Island", "RI", 41.7, -71.6),
    ("South Carolina", "SC", 33.9, -80.9),
    ("South Dakota", "SD", 44.4, -100.2),
    ("Tennessee", "TN", 35.8, -86.4),
    ("Texas", "TX", 31.5, -99.3),
    ("Utah", "UT", 39.3, -111.7),
    ("Vermont", "VT", 44.1, -72.7),
    ("Virginia", "VA", 37.5, -78.9),
    ("Washington", "WA", 47.4, -120.4),
    ("West Virginia", "WV", 38.6, -80.6),
    ("Wisconsin", "WI", 44.6, -89.7),
    ("Wyoming", "WY", 43.0, -107.6),
];

const NEIGHBOR_PREFIXES: &[&str] = &[
    "North", "South", "East", "West", "New", "Old", "Upper", "Lower", "Fort", "Lake", "Mount",
];
const NEIGHBOR_SUFFIXES: &[&str] = &[
    "Heights", "Springs", "Park", "Grove", "Falls", "Junction", "Ridge", "Valley",
];
const AIRPORT_CITY_STEMS: &[&str] = &[
    "Capital City",
    "Lakeside",
    "Harborview",
    "Summit",
    "Prairie",
    "Canyon",
    "Bayfield",
];
const AIRLINE_CODES: &[&str] = &["WS", "MD", "QV", "AP"];
const ZIP_PLACE_STEMS: &[&str] = &[
    "Fairview",
    "Midway",
    "Oak Grove",
    "Riverside",
    "Centerville",
    "Georgetown",
    "Salem",
    "Greenwood",
    "Franklin",
    "Clinton",
    "Madison",
    "Washington",
];

/// The full synthetic geography, generated once from a [`DatasetConfig`].
#[derive(Debug, Clone)]
pub struct Dataset {
    config: DatasetConfig,
    states: Vec<StateInfo>,
    neighbors: HashMap<String, Vec<Neighbor>>,
    zipareas: HashMap<String, Vec<ZipArea>>,
    zip_index: HashMap<String, (String, usize)>,
    place_facts: HashMap<String, Vec<PlaceFact>>,
    airports: HashMap<String, Vec<(String, String)>>,
    departures: HashMap<String, Vec<(String, String)>>,
    flight_status: HashMap<String, (&'static str, i64)>,
}

impl Dataset {
    /// Generates the dataset for a configuration.
    pub fn generate(config: DatasetConfig) -> Self {
        let states: Vec<StateInfo> = STATE_TABLE
            .iter()
            .map(|&(name, abbr, lat, lon)| StateInfo {
                name: name.to_owned(),
                abbr: abbr.to_owned(),
                lat,
                lon,
            })
            .collect();

        // --- Atlanta anchors and their neighbors (Query1) -----------------
        // Pick `atlanta_state_count` states deterministically, spread across
        // the alphabet, but always including Georgia (the real Atlanta).
        let mut has_atlanta: Vec<&StateInfo> = Vec::new();
        let mut pick_rng = DetRng::keyed(config.seed, "atlanta-states", 0);
        let mut candidates: Vec<usize> = (0..states.len()).collect();
        // Fisher–Yates shuffle.
        for i in (1..candidates.len()).rev() {
            let j = pick_rng.below(i as u64 + 1) as usize;
            candidates.swap(i, j);
        }
        let ga = states
            .iter()
            .position(|s| s.abbr == "GA")
            .expect("GA exists");
        let mut chosen: Vec<usize> = vec![ga];
        for idx in candidates {
            if chosen.len() >= config.atlanta_state_count.min(states.len()) {
                break;
            }
            if idx != ga {
                chosen.push(idx);
            }
        }
        for &idx in &chosen {
            has_atlanta.push(&states[idx]);
        }

        let mut neighbors: HashMap<String, Vec<Neighbor>> = HashMap::new();
        for state in &has_atlanta {
            let mut rng = DetRng::keyed(config.seed, "neighbors", fnv1a(state.abbr.as_bytes()));
            let span = (config.max_neighbors - config.min_neighbors) as u64 + 1;
            let count = config.scaled_count(
                config.min_neighbors + rng.below(span) as usize,
                "neighbors",
                &state.abbr,
            );
            let mut list = Vec::with_capacity(count);
            for n in 0..count {
                let prefix = NEIGHBOR_PREFIXES[rng.below(NEIGHBOR_PREFIXES.len() as u64) as usize];
                let suffix = NEIGHBOR_SUFFIXES[rng.below(NEIGHBOR_SUFFIXES.len() as u64) as usize];
                let name = if n == 0 {
                    // Each anchor state keeps one canonical "Atlanta <suffix>".
                    format!("Atlanta {suffix}")
                } else {
                    format!("{prefix} Atlanta {suffix}")
                };
                let distance_km = rng.uniform(0.5, 14.9);
                let kind = if rng.next_f64() < 0.8 { "City" } else { "Town" };
                list.push(Neighbor {
                    name,
                    state_abbr: state.abbr.clone(),
                    distance_km,
                    kind,
                });
            }
            neighbors.insert(state.abbr.clone(), list);
        }

        // --- Place facts for TerraService's GetPlaceList ------------------
        let mut place_facts: HashMap<String, Vec<PlaceFact>> = HashMap::new();
        for state in &states {
            if let Some(list) = neighbors.get(&state.abbr) {
                for neighbor in list {
                    let key = format!("{}, {}", neighbor.name, neighbor.state_abbr);
                    let mut rng = DetRng::keyed(config.seed, "facts", fnv1a(key.as_bytes()));
                    let rows = if rng.next_f64() < 0.38 { 2 } else { 1 };
                    let mut facts = Vec::with_capacity(rows);
                    for row in 0..rows {
                        facts.push(PlaceFact {
                            placename: neighbor.name.clone(),
                            state: neighbor.state_abbr.clone(),
                            country: "United States".to_owned(),
                            place_lat: state.lat + rng.uniform(-0.5, 0.5),
                            place_lon: state.lon + rng.uniform(-0.5, 0.5),
                            available_theme_mask: rng.below(32) as i64,
                            place_type_id: if row == 0 { 2 } else { 32 },
                            population: rng.below(95_000) as i64 + 5_000,
                            has_image: rng.next_f64() < 0.92,
                        });
                    }
                    place_facts.insert(key, facts);
                }
            }
        }

        // --- Zip areas (Query2) -------------------------------------------
        let mut zipareas: HashMap<String, Vec<ZipArea>> = HashMap::new();
        let mut zip_index: HashMap<String, (String, usize)> = HashMap::new();
        // The base numbering packs 200 zips per state into five digits;
        // scaled worlds overflow that, so they switch to a nine-digit
        // scheme with a span wide enough for any jittered per-state count.
        let wide_zips = config.max_zip_count_bound() > 200;
        let zip_span = config.max_zip_count_bound().next_multiple_of(1000);
        for (state_idx, state) in states.iter().enumerate() {
            let mut rng = DetRng::keyed(config.seed, "zips", fnv1a(state.abbr.as_bytes()));
            let zip_count = config.scaled_count(config.zips_per_state, "zips", &state.abbr);
            let mut areas = Vec::with_capacity(zip_count);
            for z in 0..zip_count {
                let zip = if wide_zips {
                    format!("{:09}", 100_000_000 + state_idx * zip_span + z)
                } else {
                    format!("{:05}", 10_000 + state_idx * 200 + z)
                };
                let count = 1 + rng.below(3) as usize;
                let mut places = Vec::with_capacity(count);
                for _ in 0..count {
                    let stem = ZIP_PLACE_STEMS[rng.below(ZIP_PLACE_STEMS.len() as u64) as usize];
                    places.push((stem.to_owned(), rng.uniform(0.0, 8.0)));
                }
                areas.push(ZipArea {
                    zip,
                    state_abbr: state.abbr.clone(),
                    places,
                });
            }
            // Colorado's USAF Academy zip, as in the paper's Query2.
            if state.abbr == "CO" {
                let slot = areas.len() / 2;
                let area = &mut areas[slot];
                area.zip = "80840".to_owned();
                area.places.insert(0, ("USAF Academy".to_owned(), 0.0));
            }
            for (i, area) in areas.iter().enumerate() {
                zip_index.insert(area.zip.clone(), (state.abbr.clone(), i));
            }
            zipareas.insert(state.abbr.clone(), areas);
        }

        // --- Aviation chain (Query3): airports → departures → status ------
        let mut airports: HashMap<String, Vec<(String, String)>> = HashMap::new();
        for state in &states {
            let mut rng = DetRng::keyed(config.seed, "airports", fnv1a(state.abbr.as_bytes()));
            // 2..=3 airports per state at base scale.
            let count = config.scaled_count(2 + rng.below(2) as usize, "airports", &state.abbr);
            let mut list = Vec::with_capacity(count);
            for a in 0..count {
                let stem = AIRPORT_CITY_STEMS[rng.below(AIRPORT_CITY_STEMS.len() as u64) as usize];
                list.push((
                    format!("{}{a}", state.abbr),
                    format!("{stem}, {}", state.abbr),
                ));
            }
            airports.insert(state.abbr.clone(), list);
        }
        // Sorted so generation is deterministic across `Dataset` instances:
        // HashMap iteration order varies per instance, and when two airports
        // mint the same flight number the *last* insert below decides its
        // status.
        let mut all_codes: Vec<String> = airports
            .values()
            .flat_map(|list| list.iter().map(|(code, _)| code.clone()))
            .collect();
        all_codes.sort();
        let mut departures: HashMap<String, Vec<(String, String)>> = HashMap::new();
        let mut flight_status: HashMap<String, (&'static str, i64)> = HashMap::new();
        for code in &all_codes {
            let mut rng = DetRng::keyed(config.seed, "departures", fnv1a(code.as_bytes()));
            // 3..=5 departures per airport at base scale.
            let count = config.jittered_count(3 + rng.below(3) as usize, "departures", code);
            let mut list = Vec::with_capacity(count);
            for f in 0..count {
                let airline = AIRLINE_CODES[rng.below(AIRLINE_CODES.len() as u64) as usize];
                let flight = format!("{airline}{}{f}", 100 + rng.below(900));
                let dest = all_codes[rng.below(all_codes.len() as u64) as usize].clone();
                let status = match rng.below(100) {
                    0..=59 => ("OnTime", 0),
                    60..=84 => ("Delayed", 10 + rng.below(110) as i64),
                    _ => ("Boarding", 0),
                };
                flight_status.insert(flight.clone(), status);
                list.push((flight, dest));
            }
            departures.insert(code.clone(), list);
        }

        Dataset {
            config,
            states,
            neighbors,
            zipareas,
            zip_index,
            place_facts,
            airports,
            departures,
            flight_status,
        }
    }

    /// The configuration this dataset was generated from.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// All states.
    pub fn states(&self) -> &[StateInfo] {
        &self.states
    }

    /// `GetPlacesWithin` semantics: places of the given kind within
    /// `distance_km` of the anchor `place` in `state_abbr`, as
    /// `(ToPlace, ToState, Distance)` rows lent from the dataset. Unknown
    /// anchors or states yield an empty result.
    pub fn places_within(
        &self,
        place: &str,
        state_abbr: &str,
        distance_km: f64,
        kind: &str,
    ) -> Vec<(&str, &str, f64)> {
        if place != "Atlanta" {
            return Vec::new();
        }
        self.neighbors
            .get(state_abbr)
            .map(|list| {
                list.iter()
                    .filter(|n| n.distance_km <= distance_km && n.kind == kind)
                    .map(|n| {
                        (
                            n.name.as_str(),
                            n.state_abbr.as_str(),
                            round2(n.distance_km),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `GetPlaceList` semantics: facts for a `"Name, ST"` place
    /// specification, truncated to `max_items`, optionally restricted to
    /// places that have map imagery. The facts are lent from the dataset.
    pub fn place_list(
        &self,
        place_spec: &str,
        max_items: i64,
        image_only: bool,
    ) -> Vec<&PlaceFact> {
        let normalized = normalize_place_spec(place_spec);
        self.place_facts
            .get(&normalized)
            .map(|facts| {
                facts
                    .iter()
                    .filter(|f| !image_only || f.has_image)
                    .take(max_items.max(0) as usize)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `GetInfoByState` semantics: every zip code of a state as one
    /// comma-separated string (the USZip service's wire format, §II.B).
    pub fn zips_for_state(&self, state_abbr: &str) -> Option<String> {
        self.zipareas.get(state_abbr).map(|areas| {
            areas
                .iter()
                .map(|a| a.zip.as_str())
                .collect::<Vec<_>>()
                .join(",")
        })
    }

    /// `GetPlacesInside` semantics: the places inside a zip code area as
    /// `(ToPlace, ToState, Distance)` rows lent from the dataset.
    pub fn places_inside(&self, zip: &str) -> Vec<(&str, &str, f64)> {
        let Some((abbr, idx)) = self.zip_index.get(zip) else {
            return Vec::new();
        };
        let area = &self.zipareas[abbr][*idx];
        area.places
            .iter()
            .map(|(name, dist)| (name.as_str(), abbr.as_str(), round2(*dist)))
            .collect()
    }

    /// `GetAirports` semantics: `(code, city)` rows for a state.
    pub fn airports(&self, state_abbr: &str) -> Vec<(String, String)> {
        self.airports.get(state_abbr).cloned().unwrap_or_default()
    }

    /// `GetDepartures` semantics: `(flight number, destination airport)`
    /// rows for an airport code.
    pub fn departures(&self, airport_code: &str) -> Vec<(String, String)> {
        self.departures
            .get(airport_code)
            .cloned()
            .unwrap_or_default()
    }

    /// `GetFlightStatus` semantics: a single `(status, delay minutes)` row
    /// for a known flight, empty otherwise.
    pub fn flight_status(&self, flight_no: &str) -> Vec<(&'static str, i64)> {
        self.flight_status
            .get(flight_no)
            .map(|&s| vec![s])
            .unwrap_or_default()
    }

    /// Total airports (= `GetAirports` result rows across all states).
    pub fn total_airport_count(&self) -> usize {
        self.airports.values().map(Vec::len).sum()
    }

    /// Total flights (= `GetDepartures` rows ⇒ `GetFlightStatus` calls).
    pub fn total_flight_count(&self) -> usize {
        self.departures.values().map(Vec::len).sum()
    }

    /// Total number of zip areas (= `GetPlacesInside` calls Query2 makes).
    pub fn total_zip_count(&self) -> usize {
        self.zipareas.values().map(Vec::len).sum()
    }

    /// Number of `"Atlanta"`-anchored states (= non-empty `GetPlacesWithin`
    /// results in Query1).
    pub fn atlanta_state_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Expected `GetPlaceList` call count for Query1 (matching neighbors
    /// across all states).
    pub fn query1_place_list_calls(&self) -> usize {
        self.states
            .iter()
            .map(|s| self.places_within("Atlanta", &s.abbr, 15.0, "City").len())
            .sum()
    }

    /// Expected Query1 result-tuple count.
    pub fn query1_result_count(&self) -> usize {
        self.states
            .iter()
            .flat_map(|s| self.places_within("Atlanta", &s.abbr, 15.0, "City"))
            .map(|(name, st, _)| self.place_list(&format!("{name}, {st}"), 100, true).len())
            .sum()
    }
}

fn normalize_place_spec(spec: &str) -> String {
    match spec.rsplit_once(',') {
        Some((name, state)) => format!("{}, {}", name.trim(), state.trim()),
        None => spec.trim().to_owned(),
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_one_states() {
        let ds = Dataset::generate(DatasetConfig::tiny());
        assert_eq!(ds.states().len(), 51);
        assert!(ds.states().iter().any(|s| s.abbr == "CO"));
        assert!(ds.states().iter().any(|s| s.abbr == "DC"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(DatasetConfig::paper());
        let b = Dataset::generate(DatasetConfig::paper());
        assert_eq!(a.states(), b.states());
        assert_eq!(a.query1_place_list_calls(), b.query1_place_list_calls());
        assert_eq!(a.zips_for_state("CO"), b.zips_for_state("CO"));
    }

    #[test]
    fn paper_scale_counts_match_paper_claims() {
        let ds = Dataset::generate(DatasetConfig::paper());
        // §II.A: Query1's naive plan makes > 300 calls and returns ~360 rows.
        let calls = 1 + 51 + ds.query1_place_list_calls();
        assert!(calls > 300, "Query1 would make only {calls} calls");
        assert!(calls < 450, "Query1 would make {calls} calls — too many");
        let results = ds.query1_result_count();
        assert!(
            (280..=440).contains(&results),
            "Query1 would return {results} tuples; paper reports 360"
        );
        // §I/§II.B: Query2's naive plan makes > 5000 calls.
        let q2_calls = 1 + 51 + ds.total_zip_count();
        assert!(q2_calls > 5000, "Query2 would make only {q2_calls} calls");
    }

    #[test]
    fn georgia_always_has_atlanta() {
        for seed in [1, 2, 3] {
            let ds = Dataset::generate(DatasetConfig {
                seed,
                ..DatasetConfig::tiny()
            });
            assert!(
                !ds.places_within("Atlanta", "GA", 15.0, "City").is_empty()
                    || !ds.places_within("Atlanta", "GA", 15.0, "Town").is_empty(),
                "GA lost its Atlanta for seed {seed}"
            );
        }
    }

    #[test]
    fn places_within_filters_by_distance_and_kind() {
        let ds = Dataset::generate(DatasetConfig::paper());
        let all_city = ds.places_within("Atlanta", "GA", 15.0, "City");
        let near_city = ds.places_within("Atlanta", "GA", 3.0, "City");
        assert!(near_city.len() <= all_city.len());
        for (_, _, d) in &near_city {
            assert!(*d <= 3.0);
        }
        let towns = ds.places_within("Atlanta", "GA", 15.0, "Town");
        for t in &towns {
            assert!(!all_city.contains(t));
        }
    }

    #[test]
    fn places_within_unknown_anchor_is_empty() {
        let ds = Dataset::generate(DatasetConfig::tiny());
        assert!(ds
            .places_within("Springfield", "GA", 15.0, "City")
            .is_empty());
        assert!(ds.places_within("Atlanta", "??", 15.0, "City").is_empty());
    }

    #[test]
    fn place_list_respects_max_items_and_image_filter() {
        let ds = Dataset::generate(DatasetConfig::paper());
        let (name, st, _) = ds.places_within("Atlanta", "GA", 15.0, "City")[0];
        let spec = format!("{name}, {st}");
        let all = ds.place_list(&spec, 100, false);
        assert!(!all.is_empty());
        assert!(ds.place_list(&spec, 0, false).is_empty());
        let with_images = ds.place_list(&spec, 100, true);
        assert!(with_images.len() <= all.len());
        assert!(with_images.iter().all(|f| f.has_image));
        // Spec parsing tolerates the paper's odd spacing ("Atlanta ,GA").
        let odd = format!("{name} ,{st}");
        assert_eq!(ds.place_list(&odd, 100, false), all);
    }

    #[test]
    fn zips_cover_every_state_uniquely() {
        let ds = Dataset::generate(DatasetConfig::tiny());
        let mut seen = std::collections::HashSet::new();
        for state in ds.states() {
            let zipstr = ds.zips_for_state(&state.abbr).unwrap();
            let zips: Vec<&str> = zipstr.split(',').collect();
            assert_eq!(zips.len(), ds.config().zips_per_state);
            for z in zips {
                assert!(seen.insert(z.to_owned()), "duplicate zip {z}");
                assert_eq!(z.len(), 5);
            }
        }
        assert!(ds.zips_for_state("XX").is_none());
    }

    #[test]
    fn usaf_academy_is_in_colorado_80840() {
        let ds = Dataset::generate(DatasetConfig::paper());
        assert!(ds.zips_for_state("CO").unwrap().contains("80840"));
        let inside = ds.places_inside("80840");
        assert!(inside
            .iter()
            .any(|&(p, st, _)| p == "USAF Academy" && st == "CO"));
        // And nowhere else.
        let mut hits = 0;
        for state in ds.states() {
            for zip in ds.zips_for_state(&state.abbr).unwrap().split(',') {
                if ds
                    .places_inside(zip)
                    .iter()
                    .any(|&(p, _, _)| p == "USAF Academy")
                {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn aviation_chain_counts_and_consistency() {
        let ds = Dataset::generate(DatasetConfig::tiny());
        assert!(ds.total_airport_count() >= 2 * 51);
        assert!(ds.total_flight_count() >= 3 * ds.total_airport_count());
        for state in ds.states() {
            for (code, city) in ds.airports(&state.abbr) {
                assert!(code.starts_with(&state.abbr));
                assert!(city.ends_with(&state.abbr));
                for (flight, dest) in ds.departures(&code) {
                    assert_eq!(ds.flight_status(&flight).len(), 1);
                    assert!(!ds.departures(&dest).is_empty() || !dest.is_empty());
                }
            }
        }
        assert!(ds.airports("??").is_empty());
        assert!(ds.departures("??").is_empty());
        assert!(ds.flight_status("??").is_empty());
    }

    #[test]
    fn generation_is_deterministic_across_instances() {
        // Two datasets from the same config must agree on *everything*,
        // including the status of flight numbers minted by two different
        // airports (insert order used to depend on HashMap iteration).
        let a = Dataset::generate(DatasetConfig::small());
        let b = Dataset::generate(DatasetConfig::small());
        for state in a.states() {
            assert_eq!(a.airports(&state.abbr), b.airports(&state.abbr));
            for (code, _) in a.airports(&state.abbr) {
                assert_eq!(a.departures(&code), b.departures(&code));
                for (flight, _) in a.departures(&code) {
                    assert_eq!(a.flight_status(&flight), b.flight_status(&flight));
                }
            }
        }
    }

    #[test]
    fn places_inside_unknown_zip_is_empty() {
        let ds = Dataset::generate(DatasetConfig::tiny());
        assert!(ds.places_inside("00000").is_empty());
    }

    #[test]
    fn small_config_shrinks_query2_only() {
        let paper = Dataset::generate(DatasetConfig::paper());
        let small = Dataset::generate(DatasetConfig::small());
        assert!(small.total_zip_count() < paper.total_zip_count() / 5);
        assert_eq!(small.atlanta_state_count(), paper.atlanta_state_count());
    }
}
