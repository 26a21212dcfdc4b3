"""Stage Dependency Graphs (Table 4 / Fig. 3 / §5.2-5.3)."""
import pytest

from repro.core.sdg import COMPUTATION, CONTROL, MEMORY, sdg_for
from repro.sampling import METHODS


@pytest.mark.parametrize("m", METHODS)
def test_validates(m):
    sdg_for(m)  # validate() runs inside


@pytest.mark.parametrize("m", METHODS)
def test_at_most_one_memory_access_per_stage(m):
    """§5.2 stage constraint: each stage has at most one memory access."""
    for s in sdg_for(m).stages:
        assert s.mem is None or isinstance(s.mem, str)


@pytest.mark.parametrize("m", METHODS)
def test_data_dependencies_form_dag(m):
    assert sdg_for(m).data_dependency_is_dag()


@pytest.mark.parametrize("m,expect_cycles", [
    ("naive", False), ("alias", False), ("its", True), ("rej", True), ("orej", True),
])
def test_cycle_stage_presence(m, expect_cycles):
    """§5.3: NAIVE/ALIAS have no cycle stages; ITS/REJ/O-REJ do."""
    cyc = sdg_for(m).cycle_stages()
    assert bool(cyc) == expect_cycles


def test_alias_matches_table4():
    g = sdg_for("alias")
    assert [s.name for s in g.stages] == ["S0", "S1", "S2"]
    assert g.stage("S0").mem == "d_v"
    # S1 -> S2 has BOTH a memory and a computation dependency (Example 5.3)
    kinds = {d.kind for d in g.deps if d.src == "S1" and d.dst == "S2"}
    assert kinds == {MEMORY, COMPUTATION}


def test_rej_matches_table4():
    g = sdg_for("rej")
    names = [s.name for s in g.stages]
    assert names[:4] == ["S0", "S1", "S2", "S3"]
    # control cycle S2 <-> S3 (Example 5.3: REJ's SDG has a cycle)
    ctrl = {(d.src, d.dst) for d in g.deps if d.kind == CONTROL}
    assert ("S3", "S2") in ctrl
    assert {"S2", "S3"} <= g.cycle_stages()


def test_rej_jump_is_own_stage():
    """§5.2: the jump-containing operation is a separate stage."""
    g = sdg_for("rej")
    s3 = g.stage("S3")
    assert s3.mem is None
    assert any("jump" in op for op in s3.ops)


@pytest.mark.parametrize("m,setup,attempt,finish", [
    ("naive", ["S0"], [], ["S1", "S2"]),
    ("its", ["S0"], [], ["S1", "S2", "S3", "S4"]),
    ("alias", ["S0"], [], ["S1", "S2"]),
    ("rej", ["S0", "S1"], ["S2", "S3"], ["S4", "S5"]),
    ("orej", ["S0"], ["S1", "S2"], ["S3"]),
])
def test_split_setup_attempt_finish(m, setup, attempt, finish):
    """The trace's per-step order: the stages before the first draw, the
    rejection cycle holding it (none for NAIVE/ITS/ALIAS; ITS's search
    loop stays in the finish), then the rest."""
    parts = sdg_for(m).split()
    assert [[st.name for st in part] for part in parts] == [setup, attempt, finish]
    assert {st.name for st in parts[1]} <= sdg_for(m).cycle_stages()


def test_its_binary_search_self_loop():
    g = sdg_for("its")
    assert ("S2", "S2") in {(d.src, d.dst) for d in g.deps if d.kind == CONTROL}
    assert "S2" in g.cycle_stages()


def test_unknown_method():
    with pytest.raises(KeyError):
        sdg_for("bogus")


@pytest.mark.parametrize("m", METHODS)
def test_instruction_estimates_positive(m):
    for s in sdg_for(m).stages:
        assert s.n_instr > 0


@pytest.mark.parametrize("m", METHODS)
def test_cycle_stages_subset_of_stages(m):
    g = sdg_for(m)
    assert g.cycle_stages() <= {s.name for s in g.stages}
