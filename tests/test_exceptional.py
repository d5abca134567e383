"""Exceptional-collection checks and resolution K-theory witnesses."""

import pytest
from hypothesis import given, settings, strategies as st

from grflop import data, exceptional
from grflop.exceptional import (ExceptionalCollection, Violation, builtin_collection,
                                builtin_resolution, check_collection,
                                check_resolution, ext_groups)
from grflop.flags import FL235, GR25, GR35
from grflop.homog import HomogeneousBundle, degree_totals, line_bundle, structure_sheaf


def _bundle(space):
    block = lambda s: st.lists(st.integers(-4, 4), min_size=s, max_size=s).map(
        lambda xs: tuple(sorted(xs, reverse=True)))
    return st.builds(lambda mult, *blocks: HomogeneousBundle(space, blocks, mult),
                     st.integers(1, 3), *[block(s) for s in space.block_sizes()])


def _twisted_pairs(space):
    """A pair of bundles and the same pair with one random constant added to
    every entry of each block of both: a common twist by block determinants."""
    def twist(e, shifts):
        return HomogeneousBundle(space, tuple(tuple(x + c for x in b)
                                              for b, c in zip(e.blocks, shifts)), e.mult)
    shifts = st.lists(st.integers(-5, 5), min_size=len(space.block_sizes()),
                      max_size=len(space.block_sizes()))
    return st.builds(lambda e, f, c: (e, f, twist(e, c), twist(f, c)),
                     _bundle(space), _bundle(space), shifts)


class TestExtGroupsMemo:
    """ext_groups is memoized up to a common twist; the unmemoized
    degree_totals of dual(source) (x) target is its oracle."""

    @given(st.sampled_from([GR25, GR35, FL235]).flatmap(_twisted_pairs))
    @settings(max_examples=200, deadline=None)
    def test_matches_unmemoized(self, drawn):
        for source, target in (drawn[:2], drawn[2:]):
            expected = degree_totals(source.dual().tensor(target).cohomology())
            assert ext_groups(source, target) == expected

    def test_twists_share_one_entry(self):
        exceptional._ext_groups.cache_clear()
        o, o1 = structure_sheaf(GR25), line_bundle(GR25, 1)
        assert ext_groups(o, o1) == ext_groups(o.twist(-3), o1.twist(-3)) == {0: 10}
        assert exceptional._ext_groups.cache_info()[:2] == (1, 1)

    def test_multiplicities_are_keyed(self):
        o = structure_sheaf(GR25)
        assert ext_groups(o.with_mult(2), o.with_mult(3)) == {0: 6}
        assert ext_groups(o, o) == {0: 1}

    def test_result_is_a_copy(self):
        o = structure_sheaf(GR25)
        ext_groups(o, o)[0] = 99
        assert ext_groups(o, o) == {0: 1}

    def test_spaces_must_match(self):
        with pytest.raises(ValueError, match="different spaces"):
            ext_groups(structure_sheaf(GR25), structure_sheaf(GR35))


class TestBuiltinCollections:
    @pytest.mark.parametrize("name", data.COLLECTION_NAMES)
    def test_passes(self, name):
        report = check_collection(builtin_collection(name))
        assert report.passed, report.violations

    def test_kapranov_object_count_matches_k_theory_rank(self):
        coll = builtin_collection("kapranov-gr35")
        assert len(coll.objects) == 10

    @pytest.mark.parametrize("name", data.COLLECTION_NAMES)
    def test_twist_invariance(self, name):
        coll = builtin_collection(name)
        twisted = ExceptionalCollection(
            name + "-twisted", coll.space,
            tuple(o.twist(2) for o in coll.objects))
        assert check_collection(twisted).passed

    @pytest.mark.parametrize("name", data.COLLECTION_NAMES)
    def test_reversal_matches_bruteforce(self, name):
        """The checker's verdict on the reversed collection agrees with a
        direct double loop over all ordered pairs."""
        coll = builtin_collection(name)
        reversed_coll = ExceptionalCollection(
            name + "-reversed", coll.space, tuple(reversed(coll.objects)))
        report = check_collection(reversed_coll)
        brute = []
        objs = reversed_coll.objects
        for b in range(len(objs)):
            for a in range(len(objs)):
                exts = ext_groups(objs[b], objs[a])
                if b > a and exts:
                    brute.append(("semiorthogonality", b, a))
                if b < a:
                    for d in exts:
                        if d != 0:
                            brute.append(("strongness", b, a))
                if b == a and (exts.get(0) != 1 or any(d > 0 for d in exts)):
                    brute.append(("exceptional", b, a))
        got = {(v.kind, v.source, v.target) for v in report.violations}
        assert got == set(brute)
        assert not report.passed or not brute


class TestNegativeControl:
    def test_fails_with_degree_six_line(self):
        coll = ExceptionalCollection(
            "control", GR25, (line_bundle(GR25, 5), structure_sheaf(GR25)))
        report = check_collection(coll)
        assert not report.passed
        assert any(v.degree == 6 and v.dim == 1 for v in report.violations)
        assert ext_groups(line_bundle(GR25, 5), structure_sheaf(GR25)) == {6: 1}

    def test_doubled_object_is_not_exceptional(self):
        """An object of multiplicity 2 has Hom(E, E) of dimension 4, not 1:
        the one violation is Hom itself, since exceptionality reports no
        degree-0 Ext but that one."""
        coll = ExceptionalCollection("doubled", GR25, (structure_sheaf(GR25).with_mult(2),))
        report = check_collection(coll)
        assert not report.passed
        assert report.violations == (Violation("exceptional", 0, 0, 0, 4),)


class TestResolutions:
    def test_rank_sums(self):
        expected = {"lascoux-1": (1, 10, 15, 6),
                    "lascoux-2": (3, 10, 15, 8),
                    "lascoux-3": (6, 30, 30, 6)}
        for name, ranks in expected.items():
            seq = builtin_resolution(name)
            assert tuple(t.rank() for t in seq.terms) == ranks
            assert check_resolution(seq).rank_sum == 0

    @pytest.mark.parametrize("name", data.RESOLUTION_NAMES)
    def test_euler_witness_over_twists(self, name):
        report = check_resolution(builtin_resolution(name))
        assert report.passed
        assert all(total == 0 for _, total in report.euler_sums)
        assert report.twists == tuple(range(-3, 4))

    def test_degree_table_shows_split_degrees(self):
        """The third complex has end terms with cohomology in degrees 2 and 4
        at twist -3; the witness cancels them with degree signs."""
        report = check_resolution(builtin_resolution("lascoux-3"))
        at_minus_3 = {(term, degree) for tw, term, degree, _ in report.degree_table
                      if tw == -3}
        assert at_minus_3 == {(0, 4), (3, 2)}
        assert dict(report.euler_sums)[-3] == 0

    def test_broken_complex_detected(self):
        seq = builtin_resolution("lascoux-1")
        broken = type(seq)(seq.name, seq.terms[:-1] + (seq.terms[0],))
        assert not check_resolution(broken).passed
