//! D2 canary for analysis code: the shape `tier_flattening` had while
//! its table changed between runs. Per-price spreads accumulate in a
//! `HashMap`, come out in hash order, and are then stable-sorted on a
//! flattening factor that ties at every 1x price point, so tied rows keep
//! the hash order. The file sits at a path inside the real D2 scope list.
//! Expected finding: the `into_iter` over `by_price`.
use std::collections::HashMap;

pub struct Spread {
    pub price_usd: u32,
    pub min_mbps: f64,
    pub max_mbps: f64,
}

impl Spread {
    fn factor(&self) -> f64 {
        self.max_mbps / self.min_mbps
    }
}

pub fn flattening_table(plans: &[(f64, f64)]) -> Vec<Spread> {
    let mut by_price: HashMap<u32, (f64, f64)> = HashMap::new();
    for &(price, mbps) in plans {
        let e = by_price
            .entry(price.round() as u32)
            .or_insert((f64::MAX, f64::MIN));
        e.0 = e.0.min(mbps);
        e.1 = e.1.max(mbps);
    }
    let mut out: Vec<Spread> = by_price
        .into_iter()
        .map(|(price_usd, (min_mbps, max_mbps))| Spread {
            price_usd,
            min_mbps,
            max_mbps,
        })
        .collect();
    out.sort_by(|a, b| b.factor().total_cmp(&a.factor()));
    out
}
