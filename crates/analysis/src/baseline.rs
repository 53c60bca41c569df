//! Prior-methodology baselines and robustness checks.
//!
//! Two comparisons the paper makes against earlier work, plus the
//! statistical robustness checks that back its conclusions:
//!
//! * **The Markup's blind spot** (§2, §5.3): the prior large-scale study
//!   covered only DSL/fiber ISPs. Viewed through that lens, a city like New
//!   Orleans looks dire — most block groups get low carriage values — but
//!   adding the cable incumbent flips the picture. [`markup_view`]
//!   quantifies both views on the same scraped data.
//! * **Upload-based carriage value** (§5.1): the paper verified its results
//!   hold when cv is computed from upload instead of download speeds.
//!   [`upload_consistency`] measures the block-group-level rank agreement.

use bbsim_dataset::{BlockGroupRow, PlanRecord};
use bbsim_isp::Isp;
use bbsim_stats::spearman;

/// The same city through two methodological lenses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkupComparison {
    /// Block groups visible to a DSL/fiber-only study.
    pub dslf_groups: usize,
    /// ... of which get a "bad deal" (best cv below the threshold).
    pub dslf_bad_frac: f64,
    /// Block groups visible when cable is included.
    pub composite_groups: usize,
    /// ... of which still get a bad deal.
    pub composite_bad_frac: f64,
    pub bad_deal_threshold_cv: f64,
}

/// Replicates the DSL/fiber-only methodology against the full composite
/// view on one city's rows. `dslf` is the city's DSL/fiber ISP.
pub fn markup_view(rows: &[BlockGroupRow], dslf: Isp, threshold_cv: f64) -> MarkupComparison {
    assert!(!dslf.is_cable(), "the Markup lens covers DSL/fiber ISPs");
    let dslf_cvs: Vec<f64> = rows
        .iter()
        .filter(|r| r.isp == dslf)
        .map(|r| r.median_cv)
        .collect();
    // Composite: best cv from any ISP per block group, indexed by
    // `bg_index`.
    let n_groups = rows.iter().map(|r| r.bg_index + 1).max().unwrap_or(0);
    let mut best: Vec<Option<f64>> = vec![None; n_groups];
    for r in rows {
        let e = best[r.bg_index].get_or_insert(f64::MIN);
        *e = e.max(r.median_cv);
    }
    let bad = |cvs: &[f64]| {
        if cvs.is_empty() {
            0.0
        } else {
            cvs.iter().filter(|&&cv| cv < threshold_cv).count() as f64 / cvs.len() as f64
        }
    };
    let composite: Vec<f64> = best.into_iter().flatten().collect();
    MarkupComparison {
        dslf_groups: dslf_cvs.len(),
        dslf_bad_frac: bad(&dslf_cvs),
        composite_groups: composite.len(),
        composite_bad_frac: bad(&composite),
        bad_deal_threshold_cv: threshold_cv,
    }
}

/// Block-group-level agreement between download-based and upload-based
/// carriage values for one ISP: Spearman rank correlation over groups.
///
/// Returns `None` with fewer than 10 comparable groups or a constant
/// margin.
pub fn upload_consistency(records: &[PlanRecord], isp: Isp) -> Option<f64> {
    // Per block group, indexed by `bg_index` so the groups pair up in one
    // fixed order: every address's best download-cv and best upload-cv.
    let n_groups = records.iter().map(|r| r.bg_index + 1).max().unwrap_or(0);
    let mut cvs: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); n_groups];
    for r in records.iter().filter(|r| r.isp == isp) {
        if r.plans.is_empty() {
            continue;
        }
        let best_down = r
            .plans
            .iter()
            .map(|p| p.download_mbps / p.price_usd)
            .fold(f64::MIN, f64::max);
        let best_up = r
            .plans
            .iter()
            .map(|p| p.upload_mbps / p.price_usd)
            .fold(f64::MIN, f64::max);
        let (down, up) = &mut cvs[r.bg_index];
        down.push(best_down);
        up.push(best_up);
    }
    // Groups this ISP never answered in have no medians and drop out.
    let (xs, ys): (Vec<f64>, Vec<f64>) = cvs
        .iter()
        .filter_map(|(down, up)| Some((bbsim_stats::median(down)?, bbsim_stats::median(up)?)))
        .unzip();
    if xs.len() < 10 {
        return None;
    }
    spearman(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_geo::BlockGroupId;
    use bqt::ScrapedPlan;

    fn row(isp: Isp, bg: usize, cv: f64) -> BlockGroupRow {
        BlockGroupRow {
            city: "X".to_string(),
            isp,
            block_group: BlockGroupId::new(22, 71, 1, 1),
            bg_index: bg,
            median_cv: cv,
            cov: Some(0.0),
            n_addresses: 30,
            fiber_share: 0.0,
        }
    }

    #[test]
    fn markup_lens_overstates_bad_deals() {
        // The §5.3 New Orleans structure: AT&T mostly low cv, Cox high cv
        // almost everywhere.
        let mut rows = Vec::new();
        for bg in 0..100 {
            if bg < 70 {
                rows.push(row(Isp::Att, bg, 0.5)); // DSL: bad deal
            } else {
                rows.push(row(Isp::Att, bg, 12.5)); // fiber
            }
            rows.push(row(Isp::Cox, bg, 11.4));
        }
        let cmp = markup_view(&rows, Isp::Att, 5.0);
        assert!(cmp.dslf_bad_frac > 0.6, "{cmp:?}");
        assert!(cmp.composite_bad_frac < 0.05, "{cmp:?}");
        assert_eq!(cmp.composite_groups, 100);
    }

    #[test]
    fn composite_covers_groups_the_dslf_isp_misses() {
        let rows = vec![
            row(Isp::Cox, 0, 11.0),
            row(Isp::Cox, 1, 11.0),
            row(Isp::Att, 0, 0.5),
        ];
        let cmp = markup_view(&rows, Isp::Att, 5.0);
        assert_eq!(cmp.dslf_groups, 1);
        assert_eq!(cmp.composite_groups, 2);
    }

    #[test]
    #[should_panic(expected = "DSL/fiber")]
    fn cable_lens_is_rejected() {
        markup_view(&[], Isp::Cox, 5.0);
    }

    fn plan_rec(isp: Isp, bg: usize, down: f64, up: f64, price: f64) -> PlanRecord {
        PlanRecord {
            city: "X".to_string(),
            isp,
            address_tag: bg as u64,
            block_group: BlockGroupId::new(22, 71, 1, 1),
            bg_index: bg,
            plans: vec![ScrapedPlan {
                download_mbps: down,
                upload_mbps: up,
                price_usd: price,
            }],
        }
    }

    #[test]
    fn symmetric_plans_give_perfect_upload_agreement() {
        // Fiber-style symmetric plans: download rank = upload rank.
        let records: Vec<PlanRecord> = (0..30)
            .map(|bg| {
                plan_rec(
                    Isp::Att,
                    bg,
                    100.0 + bg as f64 * 10.0,
                    100.0 + bg as f64 * 10.0,
                    55.0,
                )
            })
            .collect();
        let rho = upload_consistency(&records, Isp::Att).unwrap();
        assert!((rho - 1.0).abs() < 1e-9, "rho = {rho}");
    }

    #[test]
    fn anti_correlated_uploads_are_detected() {
        let records: Vec<PlanRecord> = (0..30)
            .map(|bg| {
                plan_rec(
                    Isp::Att,
                    bg,
                    100.0 + bg as f64 * 10.0,
                    400.0 - bg as f64 * 10.0,
                    55.0,
                )
            })
            .collect();
        let rho = upload_consistency(&records, Isp::Att).unwrap();
        assert!(rho < -0.9, "rho = {rho}");
    }

    #[test]
    fn too_few_groups_is_none() {
        let records = vec![plan_rec(Isp::Att, 0, 100.0, 100.0, 55.0)];
        assert!(upload_consistency(&records, Isp::Att).is_none());
    }
}
