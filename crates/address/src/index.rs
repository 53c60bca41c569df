//! The canonical-address lookup index.
//!
//! The ISP side of the address-matching problem: a canonical address table
//! indexed by normalized text, with candidate generation for the suggestion
//! list shown on the "address not found" page. Lookup keys are normalized
//! the same way a serviceability back-end would (case, punctuation and
//! USPS abbreviation folding), so cosmetic listing noise resolves here and
//! only genuine typos fall through to the suggestion flow.
//!
//! One index per city: [`AddressDb::generate`] fills it while keeping
//! canonical lines unique, and every ISP's BAT reads [`AddressDb::index`].

use crate::abbrev::{extract_zip, normalize_line};
use crate::db::{AddressDb, AddressId};
use crate::model::StreetAddress;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Normalized-lookup index over a city's canonical addresses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddressIndex {
    /// normalized street line + zip -> address id.
    exact: HashMap<String, AddressId>,
    /// (zip, house number) -> candidate ids for suggestions.
    by_zip_number: HashMap<(u32, u32), Vec<AddressId>>,
}

impl AddressIndex {
    /// Adds address `id` under its normalized canonical line. Returns
    /// `false`, leaving the index untouched, if that line is taken.
    pub(crate) fn insert(&mut self, canonical: &StreetAddress, id: AddressId) -> bool {
        let key = normalize_line(&canonical.canonical_line());
        let Entry::Vacant(slot) = self.exact.entry(key) else {
            return false;
        };
        slot.insert(id);
        self.by_zip_number
            .entry((canonical.zip, canonical.number))
            .or_default()
            .push(id);
        true
    }

    /// Rebuilds the index from the canonical side of an address inventory;
    /// equal to the one [`AddressDb::generate`] built.
    pub fn build(db: &AddressDb) -> Self {
        let mut index = Self::default();
        for r in db.records() {
            index.insert(&r.canonical, r.id);
        }
        index
    }

    /// Exact lookup after normalization.
    pub fn lookup(&self, line: &str) -> Option<AddressId> {
        self.exact.get(&normalize_line(line)).copied()
    }

    /// Looks up a line that may carry a unit designator the canonical table
    /// does not store: tries the full line, then the line with the unit
    /// stripped.
    pub fn lookup_allowing_unit(&self, line: &str) -> Option<AddressId> {
        self.lookup_normalized_allowing_unit(&normalize_line(line))
    }

    /// [`Self::lookup_allowing_unit`] for a line the caller has already
    /// put through `normalize_line`.
    pub fn lookup_normalized_allowing_unit(&self, norm: &str) -> Option<AddressId> {
        if let Some(&id) = self.exact.get(norm) {
            return Some(id);
        }
        // Strip the "apt <x>" tokens, keeping the tail (city/state/zip).
        let pos = norm.find(" apt ")?;
        let rebuilt = match norm[pos + 5..].split_once(' ') {
            Some((_, tail)) => format!("{} {tail}", &norm[..pos]),
            None => norm[..pos].to_string(),
        };
        self.exact.get(&rebuilt).copied()
    }

    /// Candidate ids for the suggestion list: same zip and house number.
    /// Falls back to the parsed zip/number of the input line.
    pub fn suggestion_candidates(&self, line: &str) -> Vec<AddressId> {
        let Some(zip) = extract_zip(line) else {
            return Vec::new();
        };
        let Some(number) = line
            .split_whitespace()
            .next()
            .and_then(|t| t.parse::<u32>().ok())
        else {
            return Vec::new();
        };
        self.by_zip_number
            .get(&(zip, number))
            .cloned()
            .unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.exact.len()
    }

    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseProfile;
    use bbsim_census::city_by_name;

    fn db_of(city: &str) -> AddressDb {
        let city = city_by_name(city).unwrap();
        AddressDb::generate(city, &city.grid(), &NoiseProfile::zillow_like())
    }

    fn db() -> AddressDb {
        db_of("Billings")
    }

    #[test]
    fn generated_index_equals_a_rebuild() {
        // Boston's zips carry a leading zero (021xx).
        for city in ["Billings", "Chicago", "Boston"] {
            let d = db_of(city);
            assert_eq!(d.index(), &AddressIndex::build(&d), "{city}");
        }
    }

    #[test]
    fn exact_lookup_finds_every_canonical_address() {
        let d = db();
        let idx = d.index();
        for r in d.records().iter().take(500) {
            assert_eq!(idx.lookup(&r.canonical.canonical_line()), Some(r.id));
        }
    }

    #[test]
    fn lookup_survives_cosmetic_noise() {
        // Most listing lines differ only in case/abbreviation and must
        // resolve without the suggestion flow.
        let d = db();
        let idx = d.index();
        let resolved = d
            .records()
            .iter()
            .take(1000)
            .filter(|r| idx.lookup(&r.listing_line) == Some(r.id))
            .count();
        assert!(resolved > 900, "only {resolved}/1000 listings resolved");
    }

    #[test]
    fn lookup_with_spurious_unit_falls_back_to_building() {
        let d = db();
        let idx = d.index();
        let r = &d.records()[0];
        let mut with_unit = r.canonical.clone();
        with_unit.unit = Some("3".to_string());
        assert_eq!(
            idx.lookup_allowing_unit(&with_unit.canonical_line()),
            Some(r.id)
        );
    }

    #[test]
    fn suggestion_candidates_share_zip_and_number() {
        let d = db();
        let idx = d.index();
        // Typo the street name; zip and number survive.
        let r = &d.records()[42];
        let mut line = r.canonical.canonical_line();
        line = line.replace(&r.canonical.street_name, "Zzyzx");
        let candidates = idx.suggestion_candidates(&line);
        assert!(
            candidates.contains(&r.id),
            "true address must be a candidate"
        );
        for id in candidates {
            let c = &d.record(id).canonical;
            assert_eq!(c.zip, r.canonical.zip);
            assert_eq!(c.number, r.canonical.number);
        }
    }

    #[test]
    fn unparseable_input_yields_no_candidates() {
        let d = db();
        let idx = d.index();
        assert!(idx
            .suggestion_candidates("not an address at all")
            .is_empty());
        assert!(idx.suggestion_candidates("").is_empty());
    }

    #[test]
    fn index_size_matches_db() {
        let d = db();
        // Generation keeps canonical lines unique, so no record shadows
        // another.
        assert_eq!(d.index().len(), d.len());
    }
}
