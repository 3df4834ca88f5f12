"""Acceptance suite: every stated criterion at its stated scale, zero tolerance.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
asserts exhaustively; expected values come from independent oracles or
closed-form tables, never from the code paths under test.
"""

import itertools
import json
import time

import pytest

from rennermonoids import (
    NormalForm,
    Relation,
    GeneratorName,
    generate_explicit,
    generate_full,
    generate_reduced,
    relation_lines,
    verify_completeness,
    verify_relations,
)
from rennermonoids.cli import main, parse_word
from oracles import by_token, cheapest_word_costs, reflection_product, rook_monoid_size, value
from test_lattice import expected_type_map
from test_presentation import GOLDEN

ALL_RANKS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)]
LENGTH_RANKS = [("A", 2), ("A", 3), ("B", 2), ("D", 3)]


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{name} {detail}"


def test_criterion_1_monoid_sizes(engine, elements):
    t0 = time.perf_counter()
    checks = []
    for (family, rank), want in [(("A", 2), 7), (("A", 3), 34), (("A", 4), 209)]:
        eng = engine(family, rank)
        got = len(elements(family, rank))
        checks.append(got == want == rook_monoid_size(eng.fam.degree))
    for family, rank in [("B", 2), ("B", 3), ("D", 3)]:
        rep = verify_completeness(engine(family, rank))
        checks.append(rep.monoid_size == rep.triple_count and rep.ok)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 60.0)
    report("criterion-1 monoid sizes", all(checks), f"{elapsed:.2f}s")


def test_criterion_2_normal_form_bijection(engine, elements):
    bad = []
    for family, rank in ALL_RANKS:
        eng = engine(family, rank)
        rep = verify_completeness(eng)
        if rep.collisions or rep.missing or not rep.ok:
            bad.append((family, rank, rep))
        for x in elements(family, rank):
            if value(eng.normal_decompose(x)) != x:
                bad.append((family, rank, x))
    report("criterion-2 normal-form bijection", not bad, f"{len(bad)} defects")


def test_criterion_3_presentation_soundness(engine):
    bad = []
    for family, rank in ALL_RANKS:
        eng = engine(family, rank)
        for gen in (generate_full, generate_reduced):
            rep = verify_relations(eng, gen(eng))
            if not rep.ok:
                bad.append((family, rank, gen.__name__))
    eng2 = engine("A", 2)
    pres = generate_full(eng2)
    corrupted = pres.__class__(
        pres.family,
        pres.rank,
        pres.alphabet,
        pres.relations
        + (Relation((GeneratorName.e(1), GeneratorName.s(1)), (GeneratorName.e(0),), "TYM3"),),
        pres.flavor,
    )
    control = verify_relations(eng2, corrupted)
    if control.ok or len(control.failures) != 1:
        bad.append(("negative-control", control))
    report("criterion-3 presentation soundness", not bad, f"{len(bad)} defects")


def test_criterion_4_length_oracle_equality(engine, elements):
    bad = 0
    for family, rank in LENGTH_RANKS:
        eng = engine(family, rank)
        costs = cheapest_word_costs(eng)
        assert set(costs) == set(elements(family, rank))
        bad += sum(eng.length_of_element(x) != c for x, c in costs.items())
    report("criterion-4 length equals cheapest-word cost", bad == 0, f"{bad} mismatches")


def test_criterion_5_length_property_suite(engine, elements):
    bad = 0
    for family, rank in LENGTH_RANKS:
        eng = engine(family, rank)
        weyl, lat = eng.weyl, eng.lattice
        right_absorbing, nonabsorbing = {}, {}
        for e in lat.elements:
            tm = lat.type_map(e)
            right_absorbing[e.token] = frozenset(weyl.iter_coset_minima(tm.absorbing, "right"))
            nonabsorbing[e.token] = weyl.parabolic(tm.nonabsorbing)
        els = elements(family, rank)
        lens = {x: eng.length_of_element(x) for x in els}
        for x in els:
            nf = eng.normal_decompose(x)
            absorbing = lat.type_map(nf.e).absorbing
            for i in weyl.s_indices:
                y = weyl.s(i) * x
                if abs(lens[y] - lens[x]) > 1:
                    bad += 1
                # dichotomy: either the prefix extends the left factor or the
                # letter is absorbed and the element is unchanged
                stays = weyl.s(i) * nf.w1 in right_absorbing[nf.e.token]
                absorbed = any(weyl.s(i) * nf.w1 == nf.w1 * weyl.s(t) for t in absorbing)
                if stays == absorbed:
                    bad += 1
                if eng.left_mult_generator(i, nf) != eng.normal_decompose(y):
                    bad += 1
                if y != x:
                    nfy = eng.normal_decompose(y)
                    delta_x = weyl.length(nf.w1) - weyl.length(nf.w2)
                    delta_y = weyl.length(nfy.w1) - weyl.length(nfy.w2)
                    if lens[y] - lens[x] != delta_y - delta_x:
                        bad += 1
            for e in lat.nonunit:
                right = x * e.idem
                if lens[right] > lens[x] or lens[e.idem * x] > lens[x]:
                    bad += 1
                nfe = eng.normal_decompose(right)
                preserved = lens[right] == lens[x]
                replaced = nfe == NormalForm(nf.w1, lat.meet(e, nf.e), nf.w2)
                if preserved != replaced:
                    bad += 1
                if preserved and nf.w2 not in nonabsorbing[e.token]:
                    bad += 1
        for x in els:
            lx = lens[x]
            for y in els:
                if lens[x * y] > lx + lens[y]:
                    bad += 1
    report("criterion-5 length property suite", bad == 0, f"{bad} violations")


def test_criterion_6_meet_under_contract(engine):
    bad = 0
    for family, rank in ALL_RANKS:
        eng = engine(family, rank)
        lat = eng.lattice
        absorbing = {
            h.token: eng.weyl.parabolic(lat.type_map(h).absorbing) for h in lat.elements
        }
        for e in lat.elements:
            for f in lat.elements:
                for w in eng.meet_under_domain(e, f):
                    h = eng.meet_under(e, w, f)
                    prod = e.idem * w * f.idem
                    ok = (
                        prod * prod == prod
                        and lat.by_idem(prod) is h
                        and h.idem * w == h.idem == w * h.idem
                        and w in absorbing[h.token]
                        and lat.leq(h, lat.meet(e, f))
                    )
                    bad += not ok
    report("criterion-6 meet-under contract", bad == 0, f"{bad} violations")


def test_criterion_7_table_snapshots(engine):
    bad = []
    for family, rank in ALL_RANKS:
        lat = engine(family, rank).lattice
        for e in lat.elements:
            tm = lat.type_map(e)
            absorbing, nonabsorbing = expected_type_map(family, rank, e.token)
            if tm.absorbing != absorbing or tm.nonabsorbing != nonabsorbing:
                bad.append((family, rank, e.token))
    f3 = by_token(engine("D", 3).lattice, "f3")
    confirmed = sorted(engine("D", 3).lattice.type_map(f3).nonabsorbing)
    print(
        "record: model confirms the commuting non-absorbed set of f3 as"
        f" {{s{confirmed[0]}, s{confirmed[1]}}}, every index except rank-1"
    )
    if confirmed != [1, 3]:
        bad.append(("D", 3, "f3"))
    # diagonal and cross up-set intersections at the verbatim ranks
    for family, rank in [("A", 3), ("A", 4), ("B", 2)]:
        eng = engine(family, rank)
        lat, weyl = eng.lattice, eng.weyl
        for e in lat.nonunit:
            for f in lat.nonunit:
                got = eng.reduced_join_domain(e, f)
                if e != f:
                    want = {weyl.identity}
                elif e.token == "e0":
                    want = {weyl.identity}
                elif family == "B" and e.token == f"e{rank}":
                    want = {
                        weyl.identity,
                        weyl.s(rank),
                        reflection_product(weyl, [rank, rank - 1, rank]),
                    }
                else:
                    want = {weyl.identity, weyl.s(int(e.token[1:]))}
                if got != frozenset(want):
                    bad.append((family, rank, e.token, f.token))
    eng_d = engine("D", 3)
    lat_d, weyl_d = eng_d.lattice, eng_d.weyl
    inter = lambda a, b: eng_d.reduced_join_domain(by_token(lat_d, a), by_token(lat_d, b))
    d_expect = {
        ("e1", "e1"): {weyl_d.identity, weyl_d.s(1)},
        ("e2", "e2"): {weyl_d.identity},
        ("e3", "e3"): {weyl_d.identity, weyl_d.s(3)},
        ("f3", "f3"): {weyl_d.identity, weyl_d.s(2)},
        ("e3", "f3"): {weyl_d.identity, reflection_product(weyl_d, [3, 1, 2])},
        ("f3", "e3"): {weyl_d.identity, reflection_product(weyl_d, [2, 1, 3])},
    }
    for (a, b), want in d_expect.items():
        if inter(a, b) != frozenset(want):
            bad.append(("D", 3, a, b))
    for family, rank in [("A", 3), ("B", 2), ("D", 3)]:
        lines = relation_lines(generate_explicit(engine(family, rank)))
        golden = [
            line
            for line in (GOLDEN / f"explicit_{family}{rank}.txt").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        if lines != golden:
            bad.append((family, rank, "golden"))
    report("criterion-7 table snapshots", not bad, f"{len(bad)} mismatches")


def test_criterion_8_cli_round_trip_and_verify(engine, elements, capsys):
    bad = []
    for family, rank in [("A", 2), ("B", 2), ("D", 3)]:
        eng = engine(family, rank)
        for x in elements(family, rank):
            word = " ".join(
                str(g) for g in eng.canonical_word(eng.normal_decompose(x))
            ) or "1"
            code = main(["--family", family, "--rank", str(rank), "--json", "nf", word])
            first = json.loads(capsys.readouterr().out)["result"]
            resubmit = " ".join(first["word"]) or "1"
            code2 = main(
                ["--family", family, "--rank", str(rank), "--json", "nf", resubmit]
            )
            second = json.loads(capsys.readouterr().out)["result"]
            if code or code2 or first != second or resubmit != word:
                bad.append((family, rank, word))
    for family, rank in ALL_RANKS:
        code = main(["--family", family, "--rank", str(rank), "verify"])
        capsys.readouterr()
        if code != 0:
            bad.append((family, rank, "verify"))
    with capsys.disabled():
        report("criterion-8 cli round trip and verify", not bad, f"{len(bad)} defects")
