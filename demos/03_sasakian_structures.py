# Almost-contact and Sasakian structures
#
# The ladder of checks: almost-contact metric axioms, the contact-metric
# pairing of d-eta with the metric, the two Sasakian axioms, and the
# statistical compatibility ladder on top of them.  The fix-s3 fixture is
# the unit-normalised contact chart on 3-space: a known-good control.

from contactstat.contactstruct import (check_almost_contact,
                                       check_contact_metric, check_sasakian,
                                       check_sasakian_statistical,
                                       lambda_family)
from contactstat.fixtures import fixture_doc
from contactstat.geometry import check_statistical, metric_samples
from contactstat.specfile import from_doc

spec = from_doc(fixture_doc("fix-s3"))
g, acs = spec.g, spec.acs
samples = metric_samples(g)

print(check_almost_contact(acs, g, samples).table())
print()

# The d-eta pairing is convention-sensitive.  The engine's counted records
# use the convention without the 1/2 factor; this fixture is normalised for
# the 1/2 convention, so the counted record fails with residual exactly 1/4
# while the informational half-convention record vanishes.  The report
# makes the normalisation mismatch visible instead of hiding it.
print(check_contact_metric(acs, g, samples).table())
print()

# The Sasakian axioms themselves hold.
print(check_sasakian(acs, g, samples).table())
print()

# A one-parameter family of compatible statistical structures: the
# difference tensor K = eta (x) eta (x) xi scaled by lambda.  Every member
# passes the full conjunction: the statistical, almost-contact and Sasakian
# checks, and the Sasakian statistical one with the transport identities for
# both connections.
for lam in (0.0, 1.0, 2.5):
    sss = lambda_family(g, acs, lam)
    reps = [check_statistical(sss.st, samples),
            check_almost_contact(acs, g, samples),
            check_sasakian(acs, g, samples),
            check_sasakian_statistical(sss, samples)]
    worst = max(r.residual for rep in reps for r in rep.records
                if not r.informational)
    print(f"lambda = {lam:3.1f}: "
          f"all records pass = {all(rep.passed for rep in reps)}, "
          f"worst residual = {worst:.2e}")
