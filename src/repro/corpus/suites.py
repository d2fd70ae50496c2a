"""Figure 1 registry: NPB v3.3.1 and SuiteSparse v5.4.0 programs.

The paper's Figure 1 is an image whose per-program details are not in
the text; the text fixes the aggregates (NPB: 6 of 10 programs contain
parallelizable subscripted-subscript loops; SuiteSparse: 4 of 8) and
names CG, UA (NPB) and CSparse (SuiteSparse) explicitly.  Entries below
marked ``reconstructed=True`` preserve those aggregates and pattern-class
coverage but their program placement is our reconstruction, documented
here and in EXPERIMENTS.md.

Each program with patterns points at representative corpus kernels; the
study module re-derives the table by running the full pipeline on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.figures import FIGURE_KERNELS, CorpusKernel

# -- additional representative kernels for reconstructed programs -----------

IS_BUCKET_SRC = """
void is_bucket(int key_buff[], int bucket_ptrs[], int key_buff2[],
               int num_buckets)
{
    int i, k;
    for (i = 0; i < num_buckets; i++) {
        for (k = bucket_ptrs[i]; k < bucket_ptrs[i+1]; k++) {
            key_buff2[k] = key_buff[k] * 2;
        }
    }
}
"""

DC_VIEW_SRC = """
void dc_views(int view_ptr[], int tuples[], int out[], int n_views)
{
    int v, t;
    for (v = 0; v < n_views; v++) {
        for (t = view_ptr[v]; t < view_ptr[v+1]; t++) {
            out[t] = tuples[t] + v;
        }
    }
}
"""

LU_PIVOT_SRC = """
void lu_pivot(int perm[], int row_out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        row_out[perm[i]] = i;
    }
}
"""

FT_INDEXMAP_SRC = """
void ft_indexmap(int xstart[], int indexmap[], int d1, int d2)
{
    int i, j;
    for (i = 0; i < d1; i++) {
        for (j = xstart[i]; j < xstart[i+1]; j++) {
            indexmap[j] = i;
        }
    }
}
"""

BTF_SCATTER_SRC = """
void btf_scatter(int perm[], int flag[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        flag[perm[i]] = 1;
    }
}
"""

COLAMD_HEADS_SRC = """
void colamd_heads(int head[], int degree_lists[], int out[], int n_deg)
{
    int d, k;
    for (d = 0; d < n_deg; d++) {
        for (k = head[d]; k < head[d+1]; k++) {
            out[k] = degree_lists[k] - 1;
        }
    }
}
"""

CXSPARSE_MATCH_SRC = """
void cx_match(int cmatch[], int rmatch[], int m)
{
    int i;
    for (i = 0; i < m; i++) {
        if (cmatch[i] >= 0) {
            rmatch[cmatch[i]] = i;
        }
    }
}
"""


# -- pass-framework extension kernels ---------------------------------------
#
# These two kernels are parallelizable only through properties the pass
# framework *derives* (PR 3); the legacy analysis engine leaves their
# target loops serial.  They double as the acceptance fixtures of the
# analysis-equivalence gate (expected improvements, not regressions).

INV_PERM_SRC = """
void inv_perm(int perm[], int inv[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        inv[perm[i]] = i;
    }
    for (i = 0; i < n; i++) {
        out[inv[i]] = i;
    }
}
"""

GUARDED_FILL_SRC = """
void guarded_fill(int data[], int pos[], int out[], int n)
{
    int i, count;
    count = 0;
    for (i = 0; i < n; i++) {
        if (data[i] > 0) {
            pos[i] = count;
            count = count + 1;
        } else {
            pos[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (pos[i] >= 0) {
            out[pos[i]] = i;
        }
    }
}
"""


def _permutation_assert(*arrays: str):
    from repro.analysis.env import ArrayRecord, PropertyEnv
    from repro.analysis.properties import Prop
    from repro.symbolic.expr import const, sub, var
    from repro.symbolic.ranges import symrange

    def make() -> PropertyEnv:
        env = PropertyEnv()
        for array in arrays:
            env.set_record(
                ArrayRecord(
                    array,
                    section=symrange(const(0), sub(var("n"), 1)),
                    props=frozenset({Prop.PERMUTATION}),
                    source="asserted",
                )
            )
        return env

    return make


def _inv_perm_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 24
    return {
        "perm": generators.injective_map(n, seed),
        "inv": np.full(n, -1, dtype=np.int64),
        "out": np.full(n, -1, dtype=np.int64),
        "n": n,
    }


def _inv_perm_ref(env):
    import numpy as np

    perm = env["perm"]
    inv = np.argsort(perm).astype(np.int64)
    # out[inv[i]] = i inverts inv again: out is perm itself
    return {"inv": inv, "out": perm.copy()}


def _guarded_fill_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 32
    rng = generators.rng_of(seed)
    return {
        "data": rng.integers(-5, 6, size=n).astype(np.int64),
        "pos": np.zeros(n, dtype=np.int64),
        "out": np.zeros(n, dtype=np.int64),
        "n": n,
    }


def _guarded_fill_ref(env):
    import numpy as np

    data = env["data"]
    n = int(env["n"])
    pos = np.full(n, -1, dtype=np.int64)
    mask = data[:n] > 0
    pos[mask] = np.arange(int(mask.sum()), dtype=np.int64)
    out = env["out"].copy()
    idx = np.arange(n, dtype=np.int64)[mask]
    out[pos[mask]] = idx
    return {"pos": pos, "out": out}


def _mono_assert(array: str):
    from repro.analysis.env import ArrayRecord, PropertyEnv
    from repro.analysis.properties import Prop

    def make() -> PropertyEnv:
        env = PropertyEnv()
        env.set_record(
            ArrayRecord(array, props=frozenset({Prop.MONO_INC}), source="asserted")
        )
        return env

    return make


def _injective_assert(array: str, subset_nonneg: bool = False):
    from repro.analysis.env import ELEM, ArrayRecord, PropertyEnv
    from repro.analysis.properties import Prop
    from repro.ir.symx import CondAtom
    from repro.symbolic.expr import array_term, const

    def make() -> PropertyEnv:
        env = PropertyEnv()
        guards = (
            (CondAtom(">=", array_term(array, ELEM), const(0)),)
            if subset_nonneg
            else ()
        )
        env.set_record(
            ArrayRecord(
                array,
                props=frozenset({Prop.INJECTIVE}),
                subset_guards=guards,
                source="asserted",
            )
        )
        return env

    return make


# -- index-vector (2-D subscripted-subscript) kernels ------------------------
#
# These three kernels exercise the dimension-general access algebra: a
# 2-D array whose *leading* dimension goes through a derived index-array
# property while the trailing dimension covers a full invariant section.
# Each flips unknown → PARALLEL only on the pass engine (the property is
# produced by a framework-only derivation rule), with the separating
# dimension named in the provenance.

PERM_ROW_SCATTER_SRC = """
void perm_row_scatter(int perm[], int inv[], int a[][8], int n)
{
    int i, j;
    for (i = 0; i < n; i++) {
        inv[perm[i]] = i;
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 8; j++) {
            a[inv[i]][j] = i + j;
        }
    }
}
"""

CSR_GATHER_ACCUM_SRC = """
void csr_gather_accum(int p[], int q[], int comp[], int acc[][6], int x[], int n)
{
    int i, k;
    for (i = 0; i < n; i++) {
        comp[i] = q[p[i]];
    }
    for (i = 0; i < n; i++) {
        for (k = 0; k < 6; k++) {
            acc[comp[i]][k] = acc[comp[i]][k] + x[k] + i;
        }
    }
}
"""

BLOCKED_COUNTER_FILL_SRC = """
void blocked_counter_fill(int data[], int pos[], int blk[][4], int n)
{
    int i, j, count;
    count = 0;
    for (i = 0; i < n; i++) {
        if (data[i] > 0) {
            pos[i] = count;
            count = count + 1;
        } else {
            pos[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) {
            if (pos[i] >= 0) {
                blk[pos[i]][j] = i + j;
            }
        }
    }
}
"""


def _perm_row_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 24
    return {
        "perm": generators.injective_map(n, seed),
        "inv": np.full(n, -1, dtype=np.int64),
        "a": np.zeros((n, 8), dtype=np.int64),
        "n": n,
    }


def _perm_row_ref(env):
    import numpy as np

    perm = env["perm"]
    n = int(env["n"])
    inv = np.argsort(perm).astype(np.int64)
    a = env["a"].copy()
    a[inv, :] = np.arange(n, dtype=np.int64)[:, None] + np.arange(8, dtype=np.int64)[None, :]
    return {"inv": inv, "a": a}


def _csr_gather_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 20
    rng = generators.rng_of(seed + 7)
    return {
        "p": generators.injective_map(n, seed),
        "q": generators.injective_map(n, seed + 1),
        "comp": np.zeros(n, dtype=np.int64),
        "acc": np.zeros((n, 6), dtype=np.int64),
        "x": rng.integers(0, 30, size=6).astype(np.int64),
        "n": n,
    }


def _csr_gather_ref(env):
    import numpy as np

    p, q, x = env["p"], env["q"], env["x"]
    n = int(env["n"])
    comp = q[p].astype(np.int64)
    acc = env["acc"].copy()
    acc[comp, :] += x[None, :] + np.arange(n, dtype=np.int64)[:, None]
    return {"comp": comp, "acc": acc}


def _blocked_fill_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 32
    rng = generators.rng_of(seed)
    return {
        "data": rng.integers(-5, 6, size=n).astype(np.int64),
        "pos": np.zeros(n, dtype=np.int64),
        "blk": np.zeros((n, 4), dtype=np.int64),
        "n": n,
    }


def _blocked_fill_ref(env):
    import numpy as np

    data = env["data"]
    n = int(env["n"])
    pos = np.full(n, -1, dtype=np.int64)
    mask = data[:n] > 0
    pos[mask] = np.arange(int(mask.sum()), dtype=np.int64)
    blk = env["blk"].copy()
    rows = np.arange(n, dtype=np.int64)[mask]
    blk[pos[mask], :] = rows[:, None] + np.arange(4, dtype=np.int64)[None, :]
    return {"pos": pos, "blk": blk}


EXTENSION_KERNELS: dict[str, CorpusKernel] = {
    k.name: k
    for k in [
        CorpusKernel(
            name="perm_row_scatter",
            figure="(index-vector algebra, PR 5)",
            pattern="P1",
            property_needed="Permutation of inv (derived) separating the leading dimension",
            source=PERM_ROW_SCATTER_SRC,
            target_loop="L2",
            assertions=_permutation_assert("perm"),
            make_inputs=_perm_row_inputs,
            reference=_perm_row_ref,
            notes="2-D row scatter a[inv[i]][j]: the trailing dimension "
            "covers the full row section; dim 0 separates via the "
            "permutation-scatter-derived Permutation(inv) — legacy "
            "leaves L2 serial",
        ),
        CorpusKernel(
            name="csr_gather_accum",
            figure="(index-vector algebra, PR 5)",
            pattern="P1",
            property_needed="Permutation of comp = q ∘ p (permutation-compose rule)",
            source=CSR_GATHER_ACCUM_SRC,
            target_loop="L2",
            assertions=_permutation_assert("p", "q"),
            make_inputs=_csr_gather_inputs,
            reference=_csr_gather_ref,
            notes="row-gather accumulation acc[comp[i]][k] += …: needs "
            "the composed permutation derived by permutation-compose; "
            "legacy records only a property-less section for comp",
        ),
        CorpusKernel(
            name="blocked_counter_fill",
            figure="(index-vector algebra, PR 5)",
            pattern="P3",
            property_needed="Subset injectivity of pos (guarded-counter rule), leading dim",
            source=BLOCKED_COUNTER_FILL_SRC,
            target_loop="L2",
            derives_properties=True,
            make_inputs=_blocked_fill_inputs,
            reference=_blocked_fill_ref,
            notes="2-D guarded block fill blk[pos[i]][j]: dim 0 "
            "separates on the subset pos[x] >= 0 via the derived "
            "strict monotonicity of pos",
        ),
        CorpusKernel(
            name="inv_perm_scatter",
            figure="(pass framework, PR 3)",
            pattern="P1",
            property_needed="Permutation of inv, derived from the inverse-permutation scatter",
            source=INV_PERM_SRC,
            target_loop="L2",
            assertions=_permutation_assert("perm"),
            make_inputs=_inv_perm_inputs,
            reference=_inv_perm_ref,
            notes="L1 parallel via asserted Permutation(perm); L2 needs the "
            "derived Permutation(inv) — legacy engine leaves it serial",
        ),
        CorpusKernel(
            name="guarded_prefix_fill",
            figure="(pass framework, PR 3)",
            pattern="P3",
            property_needed="Subset injectivity of pos, derived from the guarded counter fill",
            source=GUARDED_FILL_SRC,
            target_loop="L2",
            derives_properties=True,
            make_inputs=_guarded_fill_inputs,
            reference=_guarded_fill_ref,
            notes="no assertions: the guarded-counter rule derives strict "
            "monotonicity of pos on the subset pos[x] >= 0",
        ),
    ]
}


# -- parallel-runtime kernels (PR 8) -----------------------------------------
#
# These exercise the *execution* side of a PARALLEL verdict: scalar
# privatization and ordered reductions under the parallel engine's chunks
# (``repro.runtime.parallel``).  They need no index-array property — the
# writes are direct-indexed — but the reduction kernel's float results
# must stay byte-identical to sequential execution across any worker
# count, which the engine-equivalence suite pins.

PAR_REDUCE_MIX_SRC = """
void par_reduce_mix(double a[], double s, double lo, double hi, int n)
{
    int i;
    double t;
    for (i = 0; i < n; i++) {
        t = a[i] * 2.0;
        s = s + t;
        lo = min(lo, t);
        hi = max(hi, t);
    }
}
"""

PAR_PRIVATE_BRANCH_SRC = """
void par_private_branch(int a[], int out[], int n)
{
    int i, t;
    for (i = 0; i < n; i++) {
        if (a[i] > 0) {
            t = a[i] * 3;
        } else {
            t = 1 - a[i];
        }
        out[i] = t + i;
    }
}
"""

PAR_CARRIED_SERIAL_SRC = """
void par_carried_serial(double a[], double s, int n)
{
    int i;
    for (i = 0; i < n; i++) {
        a[i] = s * 0.5;
        s = a[i] + 1.0;
    }
}
"""


def _par_reduce_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 48
    rng = generators.rng_of(seed)
    return {
        "a": rng.uniform(-4.0, 4.0, size=n),
        "s": 0.25,
        "lo": np.inf,
        "hi": -np.inf,
        "n": n,
    }


def _par_reduce_ref(env):
    # replicate the *sequential* op order exactly: the engine promises
    # byte-identical floats, so the reference must too (no np.sum)
    s, lo, hi = env["s"], env["lo"], env["hi"]
    for x in env["a"][: int(env["n"])]:
        t = x * 2.0
        s = s + t
        lo = min(lo, t)
        hi = max(hi, t)
    return {"s": s, "lo": lo, "hi": hi}


def _par_branch_inputs(seed: int):
    import numpy as np

    from repro.workloads import generators

    n = 40
    rng = generators.rng_of(seed + 3)
    return {
        "a": rng.integers(-9, 10, size=n).astype(np.int64),
        "out": np.zeros(n, dtype=np.int64),
        "n": n,
    }


def _par_branch_ref(env):
    import numpy as np

    a = env["a"][: int(env["n"])]
    out = np.where(a > 0, a * 3, 1 - a) + np.arange(len(a), dtype=np.int64)
    return {"out": out.astype(np.int64)}


def _par_carried_inputs(seed: int):
    import numpy as np

    n = 32
    return {"a": np.zeros(n, dtype=np.float64), "s": float(seed % 5), "n": n}


def _par_carried_ref(env):
    import numpy as np

    n = int(env["n"])
    a = np.zeros(n, dtype=np.float64)
    s = env["s"]
    for i in range(n):
        a[i] = s * 0.5
        s = a[i] + 1.0
    return {"a": a}


RUNTIME_KERNELS: dict[str, CorpusKernel] = {
    k.name: k
    for k in [
        CorpusKernel(
            name="par_reduce_mix",
            figure="(parallel runtime, PR 8)",
            pattern="-",
            property_needed="none — sum/min/max reductions plus a private scalar",
            source=PAR_REDUCE_MIX_SRC,
            target_loop="L1",
            make_inputs=_par_reduce_inputs,
            reference=_par_reduce_ref,
            notes="the parallel engine must replay the reduction event "
            "stream in chunk order: s, lo, hi stay byte-identical to "
            "sequential execution at any worker count",
        ),
        CorpusKernel(
            name="par_private_branch",
            figure="(parallel runtime, PR 8)",
            pattern="-",
            property_needed="none — written-before-read scalar privatization",
            source=PAR_PRIVATE_BRANCH_SRC,
            target_loop="L1",
            make_inputs=_par_branch_inputs,
            reference=_par_branch_ref,
            notes="branchy body defeats the vectorized fast path, so the "
            "chunk closures execute for real; t is definitely written on "
            "every path, so the last chunk's final value is sequential's",
        ),
        CorpusKernel(
            name="par_carried_serial",
            figure="(parallel runtime, PR 8)",
            pattern="-",
            property_needed="none — genuine carried scalar recurrence",
            source=PAR_CARRIED_SERIAL_SRC,
            target_loop="L1",
            expect_parallel=False,
            make_inputs=_par_carried_inputs,
            reference=_par_carried_ref,
            notes="s is read before written each iteration: no schedule "
            "derives and the parallel engine must take its serial path",
        ),
    ]
}


EXTRA_KERNELS: dict[str, CorpusKernel] = {
    k.name: k
    for k in [
        CorpusKernel(
            name="is_bucket",
            figure="(reconstructed, IS)",
            pattern="P2a",
            property_needed="Monotonicity of bucket_ptrs",
            source=IS_BUCKET_SRC,
            target_loop="L1",
            assertions=_mono_assert("bucket_ptrs"),
        ),
        CorpusKernel(
            name="dc_views",
            figure="(reconstructed, DC)",
            pattern="P2a",
            property_needed="Monotonicity of view_ptr",
            source=DC_VIEW_SRC,
            target_loop="L1",
            assertions=_mono_assert("view_ptr"),
        ),
        CorpusKernel(
            name="lu_pivot",
            figure="(reconstructed, LU)",
            pattern="P1",
            property_needed="Injectivity of perm",
            source=LU_PIVOT_SRC,
            target_loop="L1",
            assertions=_injective_assert("perm"),
        ),
        CorpusKernel(
            name="ft_indexmap",
            figure="(reconstructed, FT)",
            pattern="P2a",
            property_needed="Monotonicity of xstart",
            source=FT_INDEXMAP_SRC,
            target_loop="L1",
            assertions=_mono_assert("xstart"),
        ),
        CorpusKernel(
            name="btf_scatter",
            figure="(reconstructed, BTF)",
            pattern="P1",
            property_needed="Injectivity of perm",
            source=BTF_SCATTER_SRC,
            target_loop="L1",
            assertions=_injective_assert("perm"),
        ),
        CorpusKernel(
            name="colamd_heads",
            figure="(reconstructed, COLAMD)",
            pattern="P2a",
            property_needed="Monotonicity of head",
            source=COLAMD_HEADS_SRC,
            target_loop="L1",
            assertions=_mono_assert("head"),
        ),
        CorpusKernel(
            name="cx_match",
            figure="(reconstructed, CXSparse)",
            pattern="P3",
            property_needed="Injectivity of the non-negative subset of cmatch",
            source=CXSPARSE_MATCH_SRC,
            target_loop="L1",
            assertions=_injective_assert("cmatch", subset_nonneg=True),
        ),
    ]
}


@dataclass(frozen=True)
class SuiteProgram:
    suite: str  # "NPB" | "SuiteSparse"
    program: str
    has_patterns: bool
    kernels: tuple[str, ...] = ()  # corpus kernel names
    from_paper_text: bool = False  # program named in the paper's prose
    reconstructed: bool = False
    notes: str = ""


SUITE_PROGRAMS: list[SuiteProgram] = [
    # ---- NPB v3.3.1 (10 programs, 6 with patterns) ----
    SuiteProgram("NPB", "BT", False, notes="structured-grid solver, affine subscripts"),
    SuiteProgram(
        "NPB",
        "CG",
        True,
        kernels=("fig3_cg_monotonic", "fig4_cg_monodiff", "fig9_csr_product"),
        from_paper_text=True,
        notes="sparse CG: rowstr/rowptr monotonicity patterns",
    ),
    SuiteProgram(
        "NPB",
        "DC",
        True,
        kernels=("dc_views",),
        reconstructed=True,
        notes="data-cube view offsets (reconstructed placement)",
    ),
    SuiteProgram("NPB", "EP", False, notes="embarrassingly parallel, no index arrays"),
    SuiteProgram(
        "NPB",
        "FT",
        True,
        kernels=("ft_indexmap",),
        reconstructed=True,
        notes="index-map layout loops (reconstructed placement)",
    ),
    SuiteProgram(
        "NPB",
        "IS",
        True,
        kernels=("is_bucket",),
        reconstructed=True,
        notes="bucket-sort pointer ranges (reconstructed placement)",
    ),
    SuiteProgram(
        "NPB",
        "LU",
        True,
        kernels=("lu_pivot",),
        reconstructed=True,
        notes="pivot permutation scatter (reconstructed placement)",
    ),
    SuiteProgram("NPB", "MG", False, notes="structured multigrid, affine subscripts"),
    SuiteProgram("NPB", "SP", False, notes="structured-grid solver, affine subscripts"),
    SuiteProgram(
        "NPB",
        "UA",
        True,
        kernels=("fig2_ua_injective", "fig7_ua_simul_inj", "fig8_ua_disjoint"),
        from_paper_text=True,
        notes="adaptive mesh maps: injectivity patterns",
    ),
    # ---- SuiteSparse v5.4.0 (8 programs analyzed, 4 with patterns) ----
    SuiteProgram("SuiteSparse", "AMD", False, notes="ordering; no parallel s-s loops found"),
    SuiteProgram(
        "SuiteSparse",
        "BTF",
        True,
        kernels=("btf_scatter",),
        reconstructed=True,
        notes="block-triangular permutation scatter (reconstructed placement)",
    ),
    SuiteProgram("SuiteSparse", "CHOLMOD", False, notes="supernodal; patterns guarded by workspace reuse"),
    SuiteProgram(
        "SuiteSparse",
        "COLAMD",
        True,
        kernels=("colamd_heads",),
        reconstructed=True,
        notes="degree-list segments (reconstructed placement)",
    ),
    SuiteProgram(
        "SuiteSparse",
        "CSparse",
        True,
        kernels=("fig5_csparse_subset", "fig6_csparse_simul"),
        from_paper_text=True,
        notes="maxtrans matching + DM block scatter",
    ),
    SuiteProgram(
        "SuiteSparse",
        "CXSparse",
        True,
        kernels=("cx_match",),
        reconstructed=True,
        notes="complex variant of CSparse matching",
    ),
    SuiteProgram("SuiteSparse", "KLU", False, notes="factor kernels carry true recurrences"),
    SuiteProgram("SuiteSparse", "UMFPACK", False, notes="multifrontal; no parallel s-s loops found"),
]


def all_kernels() -> dict[str, CorpusKernel]:
    """Every corpus kernel (figures + suite reconstructions + the
    pass-framework extension kernels + the parallel-runtime kernels)."""
    out = dict(FIGURE_KERNELS)
    out.update(EXTRA_KERNELS)
    out.update(EXTENSION_KERNELS)
    out.update(RUNTIME_KERNELS)
    return out
