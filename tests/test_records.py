"""The result records: the values the library reports (spectra, summaries,
index and c_N reports, verdicts, enumerated limits) are immutable records
whose fields are their whole state, built by position or by keyword."""

import pytest

from hbcalc import degeneration as dg
from hbcalc import index_calculus as ic
from hbcalc.buildings import OrbitRef, Puncture
from hbcalc.orbits import SpectralSummary
from hbcalc.spectral import SpectralEntry, SpectralTable

ENTRY = SpectralEntry(eigenvalue=-1.5, winding=0, multiplicity=2)
COMPONENT = ic.ComponentReport("top", ((("top", 0), 0.5),), 1, 0, None, True)
VIOLATION = dg.Violation("HAS_NODE", "nodal_pairs[0]", "a nice building has no nodes")

#: each record type with keyword arguments for every field, in field order
RECORDS = [
    (SpectralEntry, dict(eigenvalue=-1.5, winding=0, multiplicity=2)),
    (SpectralTable, dict(entries=(ENTRY,), window=5.0, grid=0)),
    (SpectralSummary, dict(alpha_minus=0, alpha_plus=1, parity=1, mu_cz=1)),
    (ic.DefectReport, dict(per_puncture=((("top", 0), 1),), total=1, wind_pi=0)),
    (ic.ComponentReport, dict(component="top", induced_constraints=((("top", 0), 0.5),),
                              index=1, c_n=0, defect_total=None, wind_pi_consistent=True)),
    (ic.AdditivityReport, dict(index_total=2, index_component_sum=2, c_n_total=1,
                               c_n_component_sum=0, breaking_parity_sum=1, nodal_points=0)),
    (ic.IndexReport, dict(chi=0, genus=0, c1_total=0, mu_total=2, index=2, c_n=1,
                          gamma0=(("top", 1),), gamma1=(("top", 0),),
                          per_component=(COMPONENT,))),
    (dg.Violation, dict(code="HAS_NODE", location="nodal_pairs[0]",
                        message="a nice building has no nodes")),
    (dg.NiceVerdict, dict(ok=False, violations=(VIOLATION,))),
    (dg.StableLimitVerdict, dict(kind="BROKEN_PAIR", violations=(), index=2,
                                 breaking_orbit=OrbitRef("rot_p", 2), top_component="top",
                                 bottom_component="bot")),
    (dg.TrivialSubbuildingVerdict, dict(ok=True, violations=(), branch="coprime",
                                        multiplicity=1, winding=0, c_n=0, identity_sum=0,
                                        cylindrical=True)),
    (dg.ConstantSubbuildingVerdict, dict(ok=False, violations=(VIOLATION,), value=-2)),
    (dg.Asymptotics, dict(punctures=(Puncture(1, OrbitRef("rot_p")),), rel_c1=0)),
    (dg.LimitType, dict(top=(0,), bottom=(1, 2), breaking=OrbitRef("rot_p", 2))),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_contract(record, fields):
    by_keyword = record(**fields)
    by_position = record(*fields.values())
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
