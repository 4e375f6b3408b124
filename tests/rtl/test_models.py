"""Per-processor structural model tests (CVA6 / Rocket / BOOM specifics)."""


from repro.coverage.bitset import points_of, union
from repro.coverage.points import parse_point
from repro.isa.generator import SeedGenerator
from repro.rtl.boom import BoomModel
from repro.rtl.cva6 import CVA6Model
from repro.rtl.rocket import RocketModel


def _structural_space(model):
    """The model's structural points, as its tables declare them."""
    return points_of(union(model._structural_tables()))


def _structural_prefixes(model):
    return {parse_point(p)[0] for p in _structural_space(model)}


def _run_some(model, count=20, seed=3):
    generator = SeedGenerator(rng=seed)
    covered = set()
    for program in generator.generate_many(count):
        covered |= model.run(program).coverage_points()
    return covered


class TestCVA6Structure:
    def test_structural_module_is_namespaced(self):
        assert _structural_prefixes(CVA6Model(bugs=[])) == {"cva6"}

    def test_fpu_family_exists_and_is_large(self):
        space = _structural_space(CVA6Model(bugs=[]))
        fpu_points = {p for p in space if p.startswith("cva6.fpu.")}
        assert len(fpu_points) > 500

    def test_fpu_family_unreachable_by_integer_fuzzing(self):
        """Integer-only tests cannot exercise the FPU datapath, which is what
        keeps CVA6's coverage percentage the lowest (as in the paper)."""
        covered = _run_some(CVA6Model(bugs=[]), count=15)
        fpu_covered = {p for p in covered if p.startswith("cva6.fpu.")
                       and p != "cva6.fpu.fs_dirty"}
        assert fpu_covered == set()

    def test_scoreboard_and_issue_points_reachable(self):
        covered = _run_some(CVA6Model(bugs=[]), count=10)
        assert any(p.startswith("cva6.scoreboard.") for p in covered)
        assert any(p.startswith("cva6.issue.") for p in covered)
        assert any(p.startswith("cva6.frontend.") for p in covered)


class TestRocketStructure:
    def test_structural_module_is_namespaced(self):
        assert _structural_prefixes(RocketModel(bugs=[])) == {"rocket"}

    def test_pipeline_family_reachable(self):
        covered = _run_some(RocketModel(bugs=[]), count=10)
        stages = {parse_point(p)[2] for p in covered if p.startswith("rocket.pipe.")}
        assert {"if", "id", "ex", "mem", "wb"} <= stages

    def test_regfile_and_bypass_points(self):
        covered = _run_some(RocketModel(bugs=[]), count=15)
        assert any(p.startswith("rocket.regfile.write.") for p in covered)
        assert any(p.startswith("rocket.regfile.read.") for p in covered)
        assert any(p.startswith("rocket.pcgen.") for p in covered)

    def test_most_structural_space_reachable(self):
        """Rocket's structure is mostly reachable, giving it the high coverage
        percentage the paper reports relative to CVA6."""
        model = RocketModel(bugs=[])
        covered = _run_some(model, count=60, seed=11)
        structural = _structural_space(model)
        reached = len(covered & structural) / len(structural)
        assert reached > 0.5


class TestBoomStructure:
    def test_structural_module_is_namespaced(self):
        assert _structural_prefixes(BoomModel(bugs=[])) == {"boom"}

    def test_out_of_order_bookkeeping_reachable(self):
        covered = _run_some(BoomModel(bugs=[]), count=15)
        for family in ("boom.rob.", "boom.iq.", "boom.rename.", "boom.prf.",
                       "boom.dualissue.", "boom.uop."):
            assert any(p.startswith(family) for p in covered), family

    def test_fp_issue_queue_unreachable(self):
        covered = _run_some(BoomModel(bugs=[]), count=15)
        assert not any(p.startswith("boom.iq.fp.") for p in covered)

    def test_subclass_keeps_its_own_block_plans(self):
        """A subclass with other structure sizes runs the same compiled
        blocks as BoomModel; each must emit from its own tables and plans
        (a shared plan list once indexed 4 issue-queue slots modulo 16)."""
        class SmallIssueQueue(BoomModel):
            issue_queue_slots = 4

        programs = SeedGenerator(rng=3).generate_many(3)
        small = [SmallIssueQueue(bugs=[]).run(p).coverage for p in programs]
        boom = [BoomModel(bugs=[]).run(p).coverage for p in programs]
        assert [SmallIssueQueue(bugs=[]).run(p).coverage
                for p in programs] == small
        slots = {int(point.rsplit("slot", 1)[1])
                 for mask in boom for point in points_of(mask)
                 if point.startswith("boom.iq.")}
        assert max(slots) >= 4

    def test_boom_covers_more_points_than_others_on_same_stimulus(self):
        """On identical stimulus BOOM reports the most covered branch points,
        matching the ordering of Fig. 3."""
        seeds = SeedGenerator(rng=7).generate_many(15)
        totals = {}
        for name, model in (("cva6", CVA6Model(bugs=[])),
                            ("rocket", RocketModel(bugs=[])),
                            ("boom", BoomModel(bugs=[]))):
            covered = set()
            for program in seeds:
                covered |= model.run(program).coverage_points()
            totals[name] = len(covered)
        assert totals["boom"] > totals["rocket"]
        assert totals["boom"] > totals["cva6"]


class TestConfigOverrides:
    def test_custom_config_changes_space(self):
        from repro.rtl.harness import DutConfig

        small = RocketModel(DutConfig(name="rocket", icache_sets=4, dcache_sets=4,
                                      cache_ways=1, bpred_entries=4, hazard_window=1),
                            bugs=[])
        default = RocketModel(bugs=[])
        assert small.total_coverage_points < default.total_coverage_points
        assert small.name == "rocket"
