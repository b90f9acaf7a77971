//! Inputs shared by the build-pipeline tests.

use dpmr_workloads::{all_apps, fault_campaign_apps, recovery_apps, AppSpec};

/// Every evaluated app: the union of [`all_apps`], [`fault_campaign_apps`]
/// and [`recovery_apps`], first occurrence of each name.
pub fn golden_apps() -> Vec<AppSpec> {
    let mut apps = all_apps();
    apps.extend(fault_campaign_apps());
    apps.extend(recovery_apps());
    let mut seen = Vec::new();
    apps.retain(|a| {
        let fresh = !seen.contains(&a.name);
        seen.push(a.name);
        fresh
    });
    apps
}
