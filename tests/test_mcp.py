"""Worst-case click counts: formula, exhaustive oracle, certificates."""

import hashlib
import json

import pytest

from lightsout import covers, mcp
from lightsout.gridmap import CellSet, apply_clicks, kernel_basis, min_clicks
from lightsout.mcp import (
    McpCertificate,
    mcp_bruteforce,
    mcp_formula,
    verify_certificate,
    worst_case_construct,
)

import naive


@pytest.mark.parametrize("k, value", [(1, 15), (3, 199), (7, 1191), (9, 1999), (13, 4239)])
def test_formula_values(k, value):
    assert mcp_formula(k) == value


def test_formula_rejects_nonpositive():
    with pytest.raises(ValueError):
        mcp_formula(0)


# -- exhaustive oracle ------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruteforce_nullity0_gives_full_board(n):
    value, worst = mcp_bruteforce(n)
    assert value == n * n
    assert apply_clicks(CellSet.full(n)) == worst


def test_bruteforce_4x4_matches_exhaustive_oracle():
    value, worst = mcp_bruteforce(4)
    assert value == naive.brute_mcp(4) == 7
    assert min_clicks(worst)[0] == 7


def test_bruteforce_result_is_attained():
    value, worst = mcp_bruteforce(3)
    assert min_clicks(worst)[0] == value


def test_bruteforce_budget_refusal():
    # an empty kernel is answered without a scan, whatever the budget
    value, worst = mcp_bruteforce(7)
    assert value == 49
    assert worst == apply_clicks(CellSet.full(7))
    with pytest.raises(ValueError, match="budget"):
        mcp_bruteforce(9)  # nullity 8: 73 coset bits


def test_bruteforce_rejects_nonpositive():
    with pytest.raises(ValueError):
        mcp_bruteforce(0)


# (value, worst configuration bits) of the earlier Gray-code scan
PINNED = {
    1: (1, 0x1),
    2: (4, 0xF),
    3: (9, 0x155),
    4: (7, 0x5218),
    5: (15, 0x116FCEA),
    7: (49, 0x105F3E7CF9F41),
}


def test_bruteforce_answers_are_pinned_bit_for_bit():
    for n, (value, bits) in PINNED.items():
        got, worst = mcp_bruteforce(n)
        assert (got, worst.n, worst.bits) == (value, n, bits), f"n={n}"


def test_bruteforce_tie_break_matches_a_scan_of_every_representative():
    # the lex-smallest best representative, found without PINNED or lex_less
    rep = naive.lex_smallest_worst_representative(4)
    assert mcp_bruteforce(4)[1] == apply_clicks(CellSet(4, rep))
    assert min_clicks(mcp_bruteforce(5)[1])[0] == 15


@pytest.mark.parametrize("n, value", [(4, 7), (5, 15)])
def test_bruteforce_matches_coset_leader_oracle(n, value):
    assert naive.coset_leader_mcp(n) == value
    assert mcp_bruteforce(n)[0] == value


def test_bruteforce_refuses_before_building_the_kernel(monkeypatch):
    def no_kernel(n):
        raise AssertionError(f"kernel_basis({n}) built for a search that never runs")

    monkeypatch.setattr(mcp, "kernel_basis", no_kernel)
    with pytest.raises(ValueError, match="budget"):
        mcp_bruteforce(2999)  # nullity 6
    with pytest.raises(ValueError, match="budget"):
        mcp_bruteforce(9)
    assert mcp_bruteforce(7)[0] == 49


# -- certificates ------------------------------------------------------------------

def test_certificate_k1():
    cert = worst_case_construct(1)
    assert cert.k == 1 and cert.n == 5 and cert.nullity == 2
    assert cert.claimed_min == 15
    assert cert.certified
    assert len(cert.witness) == 15
    assert apply_clicks(cert.witness) == cert.worst_config
    assert verify_certificate(cert)
    assert verify_certificate(cert, check_min_clicks=True)


def test_certificate_witness_meets_every_cover_in_half_its_cells():
    cert = worst_case_construct(3)
    x = cert.witness.bits
    for e in kernel_basis(17).span_nonzero():
        assert (x ^ e.bits).bit_count() == cert.claimed_min
        # equivalently: |X & E| = |E| / 2
        assert (x & e.bits).bit_count() * 2 == len(e)


# sha256 of worst_case_construct(k).to_json(), recorded before the witness
# was read from the kernel's cell types instead of the four regions
CERT_SHA256 = {
    1: "6140acb2776eb72000d0df4bea3b6fec1f3d9de15f643c276a155928fbd66342",
    3: "7b11fc42d845d8acfe51433467df47498abde477df7be29733c04da6974d991b",
    7: "c2efc149b6839e36c5f465a20fd41354bfeb3e1adfb2813b04d745965110d635",
    9: "447879e1a8f970c2dbb92ed1f6baf3fa2544001032500c97d9b4554637ca73d4",
    13: "3d88b93338c7576b0ec5bf439fb7d71c29debc2c586186413f08da64e0eb3021",
}


@pytest.mark.parametrize("k", sorted(CERT_SHA256))
def test_certificate_json_is_pinned(k):
    text = worst_case_construct(k).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[k]


@pytest.mark.parametrize("k", sorted(CERT_SHA256))
def test_witness_is_half_of_each_nonzero_type_and_all_of_type_0(k):
    x = worst_case_construct(k).witness.bits
    n = 6 * k - 1
    zero, *nonzero = naive.cell_types_naive(n, [e.bits for e in kernel_basis(n)])
    assert x & zero == zero
    for t in nonzero:
        assert 2 * (x & t).bit_count() == t.bit_count()
    assert x.bit_count() == mcp_formula(k)


# sha256 of worst_case_construct(k).to_json() on the upper-bound sides
# (nullity 6, 14, 10, 6), recorded while d still came from the kernel basis
UPPER_BOUND_SHA256 = {
    2: "3a2f8b4b8ba058981cefb57d104c8608beaa60da9768f29277bf8bf3b475b217",
    4: "4df71374429a10a37a48ff3afdea5fbe1ca3e1cebce59c587158cad9df3b9d85",
    5: "3adf9b764b59653fc23196f60de4942a2d2b5faea67f2d42f4105db5f6229424",
    6: "d901e57ceda02bf2b80207beddad85489c703c3424c434105cb267ed53422bbf",
}


@pytest.mark.parametrize("k", sorted(UPPER_BOUND_SHA256))
def test_upper_bound_certificate_json_is_pinned(k):
    text = worst_case_construct(k).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == UPPER_BOUND_SHA256[k]


UPPER_BOUND_K2 = McpCertificate(k=2, n=11, nullity=6, claimed_min=81,
                                worst_config=None, witness=None)


@pytest.fixture
def no_kernel(monkeypatch):
    """Fail any kernel_basis call from mcp or covers: d comes from nullity alone."""
    def refuse(n):
        raise AssertionError(f"kernel_basis({n}) built on a side whose nullity is not 2")

    monkeypatch.setattr(mcp, "kernel_basis", refuse)
    monkeypatch.setattr(covers, "kernel_basis", refuse)


def test_upper_bound_certificate_builds_no_kernel(no_kernel):
    assert worst_case_construct(2) == UPPER_BOUND_K2


@pytest.mark.parametrize("check_min_clicks", [False, True])
def test_upper_bound_certificate_verifies_without_a_kernel(no_kernel, check_min_clicks):
    assert verify_certificate(UPPER_BOUND_K2, check_min_clicks=check_min_clicks)


def test_region_partition_refuses_other_nullities_without_a_kernel(no_kernel):
    with pytest.raises(ValueError, match=r"^11x11 grid has nullity 6, not 2; "
                                         r"the four-region partition is undefined$"):
        covers.region_partition(2)


def test_certificate_k3():
    cert = worst_case_construct(3)
    assert cert.claimed_min == 199
    assert cert.certified
    assert verify_certificate(cert)


def test_certificate_k2_upper_bound_only():
    cert = worst_case_construct(2)
    assert cert.nullity == 6
    assert not cert.certified
    assert cert.claimed_min == 81
    assert cert.worst_config is None and cert.witness is None
    assert verify_certificate(cert)  # honest non-certificates verify


def test_certificate_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        worst_case_construct(0)


def test_certificate_json_round_trip():
    for k in (1, 2, 3):
        cert = worst_case_construct(k)
        assert McpCertificate.from_json(cert.to_json()) == cert


def test_an_empty_witness_round_trips_as_a_pattern_not_null():
    # an empty CellSet is falsy, but it is a pattern, not a missing one
    doc = json.loads(worst_case_construct(1).to_json())
    doc["witness"] = doc["worst_config"] = ".....\n" * 5
    cert = McpCertificate.from_json(json.dumps(doc))
    assert cert.witness == cert.worst_config == CellSet(5, 0)
    assert json.loads(cert.to_json()) == {**doc, "certified": False}  # it certifies nothing
    assert McpCertificate.from_json(cert.to_json()) == cert


def test_certificate_json_shape():
    doc = json.loads(worst_case_construct(1).to_json())
    assert doc["certified"] is True
    assert doc["claimed_min"] == 15
    assert doc["worst_config"].count("\n") == 5
    assert "checks" not in doc


def test_stored_flags_are_not_trusted():
    # a nullity-6 upper bound dressed up as certified stays uncertified
    doc = json.loads(worst_case_construct(2).to_json())
    doc["certified"] = True
    doc["checks"] = {"nullity_is_2": True, "coset_sizes_equal": True, "image_matches": True}
    cert = McpCertificate.from_json(json.dumps(doc))
    assert not cert.certified
    assert json.loads(cert.to_json())["certified"] is False


def test_from_json_reads_files_with_stored_checks():
    # files written before the stored flags were dropped still load
    doc = json.loads(worst_case_construct(1).to_json())
    doc["checks"] = {"nullity_is_2": False, "coset_sizes_equal": False, "image_matches": False}
    cert = McpCertificate.from_json(json.dumps(doc))
    assert cert == worst_case_construct(1)
    assert cert.certified


def _k1_doc(**changes):
    doc = json.loads(worst_case_construct(1).to_json())
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("{}", "'k' is missing", id="empty-object"),
        pytest.param("[1, 2]", "must be an object", id="list"),
        pytest.param(_k1_doc(witness=5), "'witness' is malformed", id="witness-int"),
        pytest.param(_k1_doc(worst_config=["#"]), "'worst_config' is malformed",
                     id="config-list"),
        pytest.param(_k1_doc(witness="#.\n"), "'witness' is malformed", id="witness-not-square"),
        pytest.param(_k1_doc(k="one"), "'k' is malformed", id="k-text"),
        pytest.param(_k1_doc(claimed_min=None), "'claimed_min' is malformed", id="claim-null"),
        pytest.param(json.dumps({"k": 1, "n": 5, "claimed_min": 15}), "'nullity' is missing",
                     id="nullity-missing"),
        pytest.param(_k1_doc(k=1.9), "'k' is malformed", id="k-float"),
        pytest.param(_k1_doc(k="1"), "'k' is malformed", id="k-digit-text"),
        pytest.param(_k1_doc(k=True), "'k' is malformed", id="k-bool"),
        # only JSON null means "no pattern"
        pytest.param(_k1_doc(witness=False), "'witness' is malformed", id="witness-false"),
        pytest.param(_k1_doc(witness=0), "'witness' is malformed", id="witness-zero"),
        pytest.param(_k1_doc(witness=""), "'witness' is malformed", id="witness-empty-text"),
        pytest.param(_k1_doc(worst_config=[]), "'worst_config' is malformed",
                     id="config-empty-list"),
    ],
)
def test_from_json_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        McpCertificate.from_json(text)


def test_verify_rejects_tampered_claimed_min():
    doc = json.loads(worst_case_construct(1).to_json())
    doc["claimed_min"] = 14
    assert not verify_certificate(McpCertificate.from_json(json.dumps(doc)))


def test_verify_rejects_tampered_witness():
    doc = json.loads(worst_case_construct(1).to_json())
    # drop one witness cell: weight and image both break
    doc["witness"] = doc["witness"].replace("#", ".", 1)
    assert not verify_certificate(McpCertificate.from_json(json.dumps(doc)))


def test_verify_rejects_tampered_config():
    doc = json.loads(worst_case_construct(1).to_json())
    first_dot = doc["worst_config"].index(".")
    doc["worst_config"] = (
        doc["worst_config"][:first_dot] + "#" + doc["worst_config"][first_dot + 1:]
    )
    assert not verify_certificate(McpCertificate.from_json(json.dumps(doc)))


# a 5x5 witness of weight 15 whose four solutions weigh 15, 15, 13 and 9:
# only its translate by the first basis vector also weighs 15
FORGED_WITNESS = CellSet(5, 0x12BED59)


@pytest.mark.parametrize("forge", [
    pytest.param(lambda basis: basis[:1], id="dropped-vector"),
    pytest.param(lambda basis: basis[:1] * 2, id="repeated-vector"),
    pytest.param(lambda basis: (basis[0], CellSet(5, 0)), id="zero-vector"),
])
def test_verify_checks_the_kernel_basis_before_walking_it(monkeypatch, forge):
    cert = worst_case_construct(1)._replace(
        witness=FORGED_WITNESS, worst_config=apply_clicks(FORGED_WITNESS))
    weights = sorted((FORGED_WITNESS.bits ^ e).bit_count() for e in naive.kernel_span_naive(5))
    assert weights == [9, 13, 15, 15]
    assert not verify_certificate(cert)
    real = mcp.kernel_basis
    monkeypatch.setattr(mcp, "kernel_basis", lambda n: forge(real(n)))
    assert not verify_certificate(cert)
    assert not verify_certificate(cert, check_min_clicks=True)


def test_verify_rejects_certificate_from_another_grid():
    # the k=1 witness bits read as a 6x6 board: weight 15, still half of
    # every 5x5 cover, and on the 6x6 (nullity 0) its own unique solution
    cert = worst_case_construct(1)
    witness = CellSet(6, cert.witness.bits)
    foreign = cert._replace(witness=witness, worst_config=apply_clicks(witness))
    assert not verify_certificate(foreign, check_min_clicks=True)
    assert not McpCertificate.from_json(foreign.to_json()).certified


def test_verify_rejects_nonpositive_k_read_from_json():
    # a k < 1 has no formula value: the certificate is false, not an error
    doc = json.loads(worst_case_construct(1).to_json())
    doc["k"] = 0
    cert = McpCertificate.from_json(json.dumps(doc))
    assert verify_certificate(cert) is False
    assert cert.certified is False


def test_verify_rejects_wrong_nullity_claim():
    doc = json.loads(worst_case_construct(2).to_json())
    doc["nullity"] = 2
    assert not verify_certificate(McpCertificate.from_json(json.dumps(doc)))


def test_certificate_agrees_with_bruteforce_on_5x5():
    cert = worst_case_construct(1)
    value, _ = mcp_bruteforce(5)
    assert value == cert.claimed_min
