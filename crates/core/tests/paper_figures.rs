//! Golden-structure tests for the paper's transformation listings:
//! Figures 2.9/2.10 (SDS `createNode`/`getSum`) and 4.1/4.2 (MDS).
//! Each element of the paper's before/after listing is asserted against
//! the printer output of the transformed module.

use dpmr_core::prelude::*;
use dpmr_ir::instr::{Instr, RegId};
use dpmr_ir::module::FuncId;
use dpmr_ir::printer::print_function;
use dpmr_workloads::micro;

fn transformed(cfg: &DpmrConfig) -> (dpmr_ir::module::Module, FuncId, FuncId) {
    let m = micro::linked_list(3);
    let t = transform(&m, cfg).expect("transform");
    let create = t.func_by_name("createNode").expect("createNode");
    let get_sum = t.func_by_name("getSum").expect("getSum");
    (t, create, get_sum)
}

#[test]
fn fig_2_9_create_node_under_sds() {
    let (t, create, _) = transformed(&DpmrConfig::sds().with_diversity(Diversity::None));
    let f = t.func(create);
    let txt = print_function(&t, f);

    // Line 8-10: LL* createNode(LLPtrSdwTy* rvSop, int32 data, LL* last,
    //                           LL* last_r, LLSdwTy* last_s)
    assert_eq!(f.params.len(), 5, "rvSop + data + last triple");
    assert!(txt.contains("%rvSop"));
    assert!(txt.contains("%last_r"));
    assert!(txt.contains("%last_s"));

    // Lines 11-13: three heap allocations (n, n_r, n_s).
    let mallocs = f
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i, Instr::Malloc { .. }))
        .count();
    assert_eq!(mallocs, 3, "application, replica, and shadow objects");
    assert!(txt.contains("%n_r = malloc"));
    assert!(txt.contains("%n_s = malloc"));

    // Lines 14-16: dataPtr triple with a NULL shadow (int field).
    assert!(txt.contains("%dataPtr_r = fieldaddr %n_r, 0"));
    assert!(txt.contains("%dataPtr_s = null"));

    // Lines 19-22: nxtPtr triple; the shadow field index is 0 because the
    // int32 field drops out of the shadow struct (phi-mapping).
    assert!(txt.contains("%nxtPtr_s = fieldaddr %n_s, 0"));

    // Lines 33-36: the pointer store becomes four stores (app, replica,
    // ROP, NSOP).
    assert!(txt.contains("store %lastNxtPtr, %n"));
    assert!(txt.contains("store %lastNxtPtr_r, %n"));
    let shadow_stores = txt.matches("store %r").count();
    assert!(
        shadow_stores >= 2,
        "ROP/NSOP stores through shadow field addrs"
    );

    // Lines 38-39: rvSop->rop = n_r; rvSop->nsop = n_s before return.
    assert!(txt.contains("fieldaddr %rvSop, 0"));
    assert!(txt.contains("fieldaddr %rvSop, 1"));
}

#[test]
fn fig_2_10_get_sum_under_sds() {
    let (t, _, get_sum) = transformed(&DpmrConfig::sds().with_diversity(Diversity::None));
    let f = t.func(get_sum);
    let txt = print_function(&t, f);

    // Params: n, n_r, n_s (no rvSop: returns int32).
    assert_eq!(f.params.len(), 3);

    // Line 9: assert(v == *dataPtr_r) — a replica load + check.
    assert!(txt.contains("dpmr.check %v"));

    // Line 16-18: pointer load gets a check plus ROP/NSOP loads from the
    // shadow object.
    assert!(txt.contains("dpmr.check %nxt"));
    assert!(txt.contains("%nxt_r = load"));
    assert!(txt.contains("%nxt_s = load"));
}

#[test]
fn fig_4_1_create_node_under_mds() {
    let (t, create, _) = transformed(&DpmrConfig::mds().with_diversity(Diversity::None));
    let f = t.func(create);
    let txt = print_function(&t, f);

    // Fig 4.1 line 2-3: LL* createNode(LL** rvRopPtr, int32 data,
    //                                  LL* last, LL* last_r)
    assert_eq!(f.params.len(), 4, "rvRopPtr + data + last pair");
    assert!(txt.contains("%rvRopPtr"));
    assert!(!txt.contains("%last_s"), "no shadow parameters under MDS");

    // Lines 4-5: two heap allocations only.
    let mallocs = f
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i, Instr::Malloc { .. }))
        .count();
    assert_eq!(mallocs, 2, "application and replica objects, no shadow");

    // Lines 18-19: *lastNxtPtr = n; *lastNxtPtr_r = n_r — the replica
    // stores the ROP, not the same pointer.
    assert!(txt.contains("store %lastNxtPtr, %n"));
    assert!(txt.contains("store %lastNxtPtr_r, %n_r"));

    // Line 21: *rvRopPtr = n_r.
    assert!(txt.contains("store %rvRopPtr, %n_r"));
}

#[test]
fn fig_4_2_get_sum_under_mds() {
    let (t, _, get_sum) = transformed(&DpmrConfig::mds().with_diversity(Diversity::None));
    let f = t.func(get_sum);
    let txt = print_function(&t, f);

    // Line 7: non-pointer loads are checked.
    assert!(txt.contains("dpmr.check %v"));

    // Lines 11-12: pointer loads are NOT checked; the replica load yields
    // the ROP directly.
    assert!(
        !txt.contains("dpmr.check %nxt,"),
        "MDS must not compare pointer loads"
    );
    assert!(txt.contains("%nxt_r = load %nxtPtr_r"));
}

#[test]
fn shadow_type_names_follow_the_paper() {
    // Table 2.2 vocabulary: the shadow of LinkedList appears as a named
    // struct derived from the original name.
    let m = micro::linked_list(2);
    let t = transform(&m, &DpmrConfig::sds()).expect("t");
    let create = t.func_by_name("createNode").expect("createNode");
    let f = t.func(create);
    // The shadow object register n_s must have a pointer-to-shadow-struct
    // type whose display mentions the sdw-derived name.
    let n_s = (0..f.regs.len() as u32)
        .map(RegId)
        .find(|&r| f.reg_name(r) == "n_s")
        .expect("n_s");
    let disp = t.types.display(f.reg_ty(n_s));
    assert!(
        disp.contains("sdw") || disp.contains("Sdw"),
        "shadow type name surfaces in {disp}"
    );
}

#[test]
fn transformed_modules_are_self_contained() {
    // Every figure module must verify and carry wrapper externals only.
    for cfg in [DpmrConfig::sds(), DpmrConfig::mds()] {
        let m = micro::string_play();
        let t = transform(&m, &cfg).expect("t");
        assert!(dpmr_ir::verify::verify_module(&t).is_ok());
        for e in &t.externals {
            assert!(
                e.name.ends_with(".efw") || e.name == "strlen" || e.name == "strcpy",
                "unexpected external {} (wrappers + argv-startup helpers only)",
                e.name
            );
        }
    }
}
