"""Rule-table parsing, pattern matching, and the crossing guard."""
from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest

from totalcolor.configs import assemble, get_config
from totalcolor.ruletable import (
    AMOUNT_MENU,
    DEFAULT_TABLE_DICT,
    DEFAULT_TABLE_JSON,
    EndPattern,
    FaceToken,
    LocalRule,
    MatchContext,
    RuleError,
    RuleTable,
    default_rules,
    guarded_crossing,
    parse_rule_table,
    receiver_matches,
    resolve_threshold,
    rule_table_from_dict,
    sender_matches,
)

from helpers import dart_towards, petal_fan, quad_with_crossing


def one_rule_table(**rule_over):
    rule = {
        "id": "t1",
        "sender": {"kind": "true", "min_degree": "delta-2"},
        "receiver": {"kind": "true", "d1": 3},
        "amount": "1/3",
    }
    rule.update(rule_over)
    return {"rules": [rule], "exclusions": []}


# -- parsing ------------------------------------------------------------------

def test_amount_menu_is_the_proof_menu():
    assert AMOUNT_MENU == (
        Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
    )


def test_parse_minimal_table():
    t = rule_table_from_dict(one_rule_table())
    assert len(t.rules) == 1
    assert t.rules[0].id == "t1"
    assert t.rules[0].amount == Fraction(1, 3)
    assert t.rules[0].sender.min_degree == "delta-2"
    assert t.exclusions == ()


def test_parse_rejects_bad_json():
    with pytest.raises(RuleError, match="not valid JSON"):
        parse_rule_table("{nope")


def test_parse_rejects_non_table_payloads():
    for bad in ([], {"exclusions": []}, "rules", 7):
        with pytest.raises(RuleError, match="'rules'"):
            rule_table_from_dict(bad)


def test_parse_rejects_missing_and_duplicate_ids():
    with pytest.raises(RuleError, match="missing or duplicate"):
        rule_table_from_dict(one_rule_table(id=None))
    twice = one_rule_table()
    twice["rules"].append(dict(twice["rules"][0]))
    with pytest.raises(RuleError, match="missing or duplicate"):
        rule_table_from_dict(twice)


def test_parse_rejects_bad_amounts():
    for bad in ("elephant", None, "1/0"):
        with pytest.raises(RuleError, match="bad amount"):
            rule_table_from_dict(one_rule_table(amount=bad))
    rule = one_rule_table()["rules"][0]
    del rule["amount"]
    with pytest.raises(RuleError, match="bad amount"):
        rule_table_from_dict({"rules": [rule]})


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "1e400"])
def test_parse_rejects_non_finite_numbers_by_field(number):
    # json.loads reads these as floats that no Fraction can hold
    amount = f'{{"rules": [{{"id": "t1", "amount": {number}}}]}}'
    with pytest.raises(RuleError, match="rule t1: bad amount"):
        parse_rule_table(amount)
    receiver = {"kind": "true", "faces": [{"size": 3, "min_share": "SHARE"}]}
    share = json.dumps(one_rule_table(receiver=receiver)).replace('"SHARE"', number)
    with pytest.raises(RuleError, match="bad min_share in face token"):
        parse_rule_table(share)


def test_parse_rejects_amounts_off_the_menu():
    # exact rationals, but not ones the case analysis ever sends
    for off in ("1/4", "2/5", "1", "5/6"):
        with pytest.raises(RuleError, match="outside the menu"):
            rule_table_from_dict(one_rule_table(amount=off))


def test_parse_rejects_unknown_exclusions():
    t = one_rule_table()
    t["exclusions"] = ["guarded-crossing", "wishful-thinking"]
    with pytest.raises(RuleError, match="unknown exclusion"):
        rule_table_from_dict(t)


def test_parse_rejects_a_repeated_exclusion():
    # a repeated rule id is refused, and so is a repeated exclusion
    table = {"rules": [], "exclusions": ["guarded-crossing", "guarded-crossing"]}
    with pytest.raises(RuleError) as info:
        rule_table_from_dict(table)
    assert str(info.value) == "repeated exclusion 'guarded-crossing'"


def test_parse_rejects_unknown_pattern_keys():
    with pytest.raises(RuleError, match="unknown sender pattern keys"):
        rule_table_from_dict(one_rule_table(sender={"kind": "true", "dd2": 4}))
    with pytest.raises(RuleError, match="unknown receiver pattern keys"):
        rule_table_from_dict(one_rule_table(receiver={"size": 3}))


def test_parse_rejects_bad_face_tokens():
    bad_tokens = [
        True,            # bool is not a size
        "4",             # strings must be lower bounds like "4+"
        "+4",
        "x+",
        3.5,
        {"size": 3, "corners": 2},   # unknown key
        {"size": "big"},
        {"size": "4plus"},
        {"min_share": "a/b"},
        {"min_share": "1/0"},
    ]
    for tok in bad_tokens:
        table = one_rule_table(receiver={"kind": "true", "faces": [tok]})
        with pytest.raises(RuleError):
            rule_table_from_dict(table)


def _with_table(**table_over):
    table = one_rule_table()
    table.update(table_over)
    return table


@pytest.mark.parametrize(
    "table",
    [
        {"rules": 5},
        {"rules": [1]},
        {"rules": [None]},
        _with_table(exclusions=3),
        _with_table(comment="unknown table key"),
        one_rule_table(note="unknown rule key"),
        one_rule_table(id=5),
        one_rule_table(sender=5),
        one_rule_table(receiver=[]),
        one_rule_table(sender={"kind": "banana"}),
        one_rule_table(receiver={"kind": "banana"}),
        one_rule_table(receiver={"d1": "3"}),
        one_rule_table(receiver={"d2": -1}),
        one_rule_table(receiver={"d1": True}),
        one_rule_table(receiver={"size_class": "huge"}),
        one_rule_table(receiver={"new_incident": 1}),
        one_rule_table(receiver={"num_crossing_neighbors": 1.5}),
        one_rule_table(receiver={"opposite_end_small": "yes"}),
        one_rule_table(receiver={"faces": 5}),
        one_rule_table(receiver={"faces": "3"}),
        one_rule_table(sender={"min_degree": "delta-3"}),
        one_rule_table(sender={"min_degree": True}),
        one_rule_table(sender={"min_degree": -2}),
        one_rule_table(sender={"min_degree": ["delta"]}),
        one_rule_table(sender={"via_new_edge": "no"}),
        # receiver-only keys in a sender pattern, and the reverse
        one_rule_table(sender={"faces": 5}),
        one_rule_table(sender={"faces": [3, 3, 3]}),
        one_rule_table(sender={"num_crossing_neighbors": 2}),
        one_rule_table(sender={"opposite_end_small": True}),
        one_rule_table(receiver={"min_degree": "delta"}),
        one_rule_table(receiver={"via_new_edge": True}),
        # face token values
        one_rule_table(receiver={"faces": [{"size": True}]}),
        one_rule_table(receiver={"faces": [-3]}),
        one_rule_table(receiver={"faces": [{"new_edge": "yes"}]}),
        one_rule_table(receiver={"faces": [{"min_bigs": -1}]}),
        one_rule_table(receiver={"faces": [{"max_bigs": "1"}]}),
        one_rule_table(receiver={"faces": [{"min_share": [1]}]}),
        one_rule_table(receiver={"faces": [{"min_share": True}]}),
    ],
)
def test_parse_rejects_malformed_values(table):
    with pytest.raises(RuleError):
        rule_table_from_dict(table)
    # and through the JSON front door too
    with pytest.raises(RuleError):
        parse_rule_table(json.dumps(table))


def test_parse_keeps_valid_thresholds_and_flags():
    for threshold in ("delta", "delta-1", "delta-2", 0, 11):
        t = rule_table_from_dict(
            one_rule_table(sender={"min_degree": threshold, "via_new_edge": False})
        )
        assert t.rules[0].sender.min_degree == threshold
        assert t.rules[0].sender.via_new_edge is False
    # null leaves a field unpinned, as if the key were absent
    t = rule_table_from_dict(one_rule_table(receiver={"kind": None, "faces": None}))
    assert t.rules[0].receiver == EndPattern()


def test_face_token_forms_parse():
    table = one_rule_table(
        receiver={
            "kind": "crossing",
            "faces": [
                3,
                "4+",
                {"size": "5+", "min_bigs": 1},
                {"size": 4, "new_edge": True, "max_bigs": 1, "min_share": "2/3"},
            ],
        }
    )
    (rule,) = rule_table_from_dict(table).rules
    t0, t1, t2, t3 = rule.receiver.faces
    assert (t0.size, t0.min_size) == (3, None)
    assert (t1.size, t1.min_size) == (None, 4)
    assert (t2.min_size, t2.min_bigs) == (5, 1)
    assert (t3.size, t3.new_edge, t3.max_bigs) == (4, True, 1)
    assert t3.min_share == Fraction(2, 3)


def test_resolve_threshold():
    assert resolve_threshold(4, 9) == 4
    assert resolve_threshold("delta", 9) == 9
    assert resolve_threshold("delta-1", 9) == 8
    assert resolve_threshold("delta-2", 9) == 7
    with pytest.raises(RuleError, match="bad degree threshold"):
        resolve_threshold("delta-3", 9)
    with pytest.raises(RuleError, match="bad degree threshold"):
        resolve_threshold(None, 9)
    with pytest.raises(RuleError, match="bad degree threshold True"):
        resolve_threshold(True, 9)


def test_code_built_table_rejects_a_bad_threshold_before_any_dart():
    # the JSON path checks thresholds; a table built in code must fail as
    # early, not only when some dart reaches the rule
    for bad in ("bogus", True, -3):
        with pytest.raises(RuleError, match=re.escape(f"bad degree threshold {bad!r}")):
            RuleTable(
                [
                    LocalRule(
                        "x",
                        EndPattern(min_degree=bad),
                        EndPattern(kind="crossing"),
                        Fraction(1, 3),
                    )
                ]
            )
    for good in (None, 0, 7, "delta", "delta-1", "delta-2"):
        assert EndPattern(min_degree=good).min_degree == good


def test_random_menu_amounts_always_parse():
    rng = random.Random(20240817)
    menu = ["1/6", "1/3", "1/2", "2/3"]
    for trial in range(50):
        n = rng.randint(1, 6)
        rules = [
            {
                "id": f"r{i}",
                "sender": {"kind": "true"},
                "receiver": {"d2": rng.randint(3, 7)},
                "amount": rng.choice(menu),
            }
            for i in range(n)
        ]
        t = rule_table_from_dict({"rules": rules})
        assert [r.amount for r in t.rules] == [Fraction(r["amount"]) for r in rules]
        # any single off-menu amount poisons the table
        rules[rng.randrange(n)]["amount"] = str(
            Fraction(rng.randint(1, 9), rng.choice([11, 13]))
        )
        with pytest.raises(RuleError):
            rule_table_from_dict({"rules": rules})


# -- the shipped table --------------------------------------------------------

def test_default_table_shape():
    t = default_rules()
    assert len(t.rules) == 25
    ids = [r.id for r in t.rules]
    assert len(set(ids)) == 25
    assert all(r.amount in AMOUNT_MENU for r in t.rules)
    assert t.exclusions == ("guarded-crossing",)
    # senders all demand a true vertex near the top of the degree range
    assert all(r.sender.kind == "true" for r in t.rules)
    assert all(r.sender.min_degree == "delta-2" for r in t.rules)
    # the parse is cached
    assert default_rules() is t


def test_default_json_matches_dict():
    t = parse_rule_table(DEFAULT_TABLE_JSON)
    u = rule_table_from_dict(DEFAULT_TABLE_DICT)
    assert [r.id for r in t.rules] == [r.id for r in u.rules]
    assert t.rules == u.rules
    assert json.loads(DEFAULT_TABLE_JSON)["exclusions"] == ["guarded-crossing"]


# -- token and pattern matching on real drawings ------------------------------

def quad_ctx():
    e, g = quad_with_crossing()
    from totalcolor.augment import AugmentedGraph

    return MatchContext(AugmentedGraph(g=g, base=e, star=e, insertions=[]))


def test_face_tokens_against_sizes():
    ctx = quad_ctx()
    tri = ctx.face_size.index(3)
    quad = ctx.face_size.index(4)
    assert FaceToken(size=3).matches(ctx, tri)
    assert not FaceToken(size=3).matches(ctx, quad)
    assert FaceToken(min_size=4).matches(ctx, quad)
    assert not FaceToken(min_size=4).matches(ctx, tri)
    assert FaceToken(min_size=3).matches(ctx, tri)
    # no big vertices anywhere in this drawing
    assert FaceToken(max_bigs=0).matches(ctx, quad)
    assert not FaceToken(min_bigs=1).matches(ctx, quad)
    # no new edges either
    assert FaceToken(new_edge=False).matches(ctx, tri)
    assert not FaceToken(new_edge=True).matches(ctx, tri)


def test_face_share_and_min_share():
    ctx = quad_ctx()
    tri = ctx.face_size.index(3)
    quad = ctx.face_size.index(4)
    assert ctx.face_share(tri) == 0
    assert ctx.face_share(quad) == Fraction(1, 2)  # 2 units over 4 smalls
    assert FaceToken(min_share=Fraction(1, 2)).matches(ctx, quad)
    assert not FaceToken(min_share=Fraction(2, 3)).matches(ctx, quad)


def all_big_quad():
    faces = [(0, 1, 2, 3)]
    faces += petal_fan(0, [1, 30, 31, 32, 33])
    faces += petal_fan(1, [2, 34, 35, 36, 37])
    faces += petal_fan(2, [3, 38, 39, 40, 41])
    faces += petal_fan(3, [0, 42, 43, 44, 45])
    return assemble([list(f) for f in faces])


def test_min_share_is_vacuous_without_small_occurrences():
    # a 4-face surrounded by big vertices redistributes nothing, so any
    # share floor passes by convention
    ctx = MatchContext(all_big_quad())
    (fi,) = [
        i
        for i in range(len(ctx.faces))
        if ctx.face_size[i] == 4 and ctx.face_smalls[i] == 0
    ]
    assert ctx.face_share(fi) is None
    assert FaceToken(min_share=Fraction(2, 3)).matches(ctx, fi)
    assert FaceToken(min_share=Fraction(99, 6) / 6).matches(ctx, fi)


def sends(p, ctx, s, r_dart, delta):
    """sender_matches with p's threshold resolved against delta, as the
    rule table resolves it."""
    m = None if p.min_degree is None else resolve_threshold(p.min_degree, delta)
    return sender_matches(p, ctx, s, r_dart, m)


def test_sender_degree_thresholds_use_original_degree():
    ctx = quad_ctx()
    star = ctx.star
    d = dart_towards(star, 1, 0)  # receiver 1, sender 0
    # delta of the square-with-diagonals is 3; true senders measure d1
    assert sends(EndPattern(kind="true", min_degree="delta"), ctx, 0, d, 3)
    assert sends(EndPattern(kind="true", min_degree="delta-2"), ctx, 0, d, 3)
    assert not sends(EndPattern(kind="true", min_degree=4), ctx, 0, d, 3)
    assert not sends(EndPattern(kind="crossing"), ctx, 0, d, 3)
    # the crossing vertex measures its star degree instead
    dx = dart_towards(star, 1, 4)
    assert sends(EndPattern(kind="crossing", min_degree=4), ctx, 4, dx, 3)
    assert sends(EndPattern(d2=4), ctx, 4, dx, 3)
    assert not sends(EndPattern(d1=3), ctx, 4, dx, 3)


def test_anchored_view_and_mirror():
    ctx = quad_ctx()
    star = ctx.star
    # at vertex 1 the corners read (3, 3, 4) starting beyond the edge to 0
    d0 = dart_towards(star, 1, 0)
    assert receiver_matches(EndPattern(faces=(FaceToken(size=3),) * 2 + (FaceToken(size=4),)), ctx, 1, d0)
    # same pattern reversed matches through the mirror pass
    assert receiver_matches(EndPattern(faces=(FaceToken(size=4),) + (FaceToken(size=3),) * 2), ctx, 1, d0)
    # the rotationally-shifted pattern is a different shape and must fail
    assert not receiver_matches(
        EndPattern(faces=(FaceToken(size=3), FaceToken(size=4), FaceToken(size=3))),
        ctx, 1, d0,
    )
    # anchored at the crossing-ward edge the 4-face sits mid-view
    dx = dart_towards(star, 1, 4)
    assert receiver_matches(
        EndPattern(faces=(FaceToken(size=3), FaceToken(size=4), FaceToken(size=3))),
        ctx, 1, dx,
    )
    # a pattern of the wrong arity never matches
    assert not receiver_matches(EndPattern(faces=(FaceToken(size=3),) * 2), ctx, 1, d0)


def test_receiver_census_fields():
    ctx = quad_ctx()
    star = ctx.star
    d0 = dart_towards(star, 1, 0)
    assert receiver_matches(EndPattern(num_crossing_neighbors=1), ctx, 1, d0)
    assert not receiver_matches(EndPattern(num_crossing_neighbors=0), ctx, 1, d0)
    assert receiver_matches(EndPattern(kind="true", d1=3, d2=3), ctx, 1, d0)
    assert not receiver_matches(EndPattern(size_class="big"), ctx, 1, d0)


def test_opposite_end_small_needs_a_crossing_receiver():
    ctx = quad_ctx()
    star = ctx.star
    # receiver 4 is the crossing; opposite the dart from 0 sits vertex 2
    dx = dart_towards(star, 4, 0)
    assert receiver_matches(EndPattern(opposite_end_small=True), ctx, 4, dx)
    assert not receiver_matches(EndPattern(opposite_end_small=False), ctx, 4, dx)
    # on a true receiver the field can never match
    dt = dart_towards(star, 1, 0)
    assert not receiver_matches(EndPattern(opposite_end_small=True), ctx, 1, dt)


def test_via_new_edge():
    a = get_config("cross-alternating").build()
    ctx = MatchContext(a)
    star = a.star
    new_dart = dart_towards(star, 4, 1)   # the inserted segment 1-4
    old_dart = dart_towards(star, 4, 0)
    assert sends(EndPattern(via_new_edge=True), ctx, 1, new_dart, 8)
    assert not sends(EndPattern(via_new_edge=False), ctx, 1, new_dart, 8)
    assert sends(EndPattern(via_new_edge=False), ctx, 0, old_dart, 8)
    # endpoint census of the new edge
    assert sends(EndPattern(new_incident=True), ctx, 1, new_dart, 8)
    assert not sends(EndPattern(new_incident=False), ctx, 1, new_dart, 8)


def test_guarded_crossing_flags():
    cfg = get_config("guard-stop")
    a = cfg.build()
    ctx = MatchContext(a)
    star = a.star
    flags = {
        star.other_end(d): guarded_crossing(ctx, star.other_end(d), 0, d)
        for d in star.rotation[0]
    }
    # only the mid-run anchor (vertex 3) is cut off: its target corner is a
    # 3-face with a small true flank whose segment also borders a big face
    assert flags == {1: False, 2: False, 3: True, 4: False}


def test_guarded_crossing_ignores_true_receivers():
    ctx = quad_ctx()
    star = ctx.star
    d = dart_towards(star, 1, 0)
    assert not guarded_crossing(ctx, 0, 1, d)
