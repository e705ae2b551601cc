# Contact CR-submanifolds: classification and honest failure reporting
#
# The paper-r7 fixture splits the tangent bundle of its 5-chart into an
# invariant distribution D = span(e1, e2, e5) and an anti-invariant
# complement span(e3, e4).  Its CR structure, integrability and geodesic
# records all pass; the ambient Sasakian axioms do not hold for the flat
# metric, and the engine reports those failures with their exact
# magnitudes instead of assuming the fixture is what it claims to be.

from contactstat.contactstruct import check_sasakian
from contactstat.crchecks import (check_contact_cr, check_integrability_D,
                                  check_integrability_Dperp,
                                  check_mixed_geodesic_consequences,
                                  classify_geodesic, mixed_geodesic_verdict)
from contactstat.fixtures import fixture_doc
from contactstat.geometry import metric_samples
from contactstat.sampling import sample_box
from contactstat.specfile import from_doc

spec = from_doc(fixture_doc("paper-r7-euclidean"))
cr = spec.cr_structure()
samples = sample_box(5, count=32)

print(check_contact_cr(cr, samples).table())
print()
print(check_integrability_D(cr, samples).table())
print()
print(check_integrability_Dperp(cr, samples).table())
print()

# Both fundamental forms vanish identically here, so every geodesicity
# flag passes and the umbilic factor is zero.
geo = classify_geodesic(cr, samples)
print(geo.table())
print()
# the mixed-geodesic consequences take the classifier's verdict: a record
# whose precondition fails is reported for information
print(mixed_geodesic_verdict(check_mixed_geodesic_consequences(cr, samples),
                             geo).table())
print()

# The honest failure: the flat ambient is not Sasakian.  The residual of
# the Reeb-transport axiom is exactly 1 at the first frame direction.
g = spec.sss.st.g
srep = check_sasakian(spec.sss.acs, g, metric_samples(g))
rec = srep.record("xi-derivative")
print(f"ambient Sasakian axiom: {rec.status}, residual = {rec.residual:.6f} "
      f"at witness {rec.witness}")
