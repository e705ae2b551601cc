# Embedded submanifolds: induced metric and Gauss-Weingarten data
#
# An embedding carries its Jacobian symbolically; at each sample the engine
# builds the tangent frame (Jacobian columns), a deterministic orthonormal
# normal frame, and evaluators for the fundamental forms h, h*, the shape
# operators A, A*, and the normal connections, for both connections of a
# statistical ambient structure.

import numpy as np

from contactstat.fixtures import fixture_doc
from contactstat.geometry import (ConnField, MetricField, StatTriple,
                                  VectorField)
from contactstat.sampling import sample_box
from contactstat.specfile import from_doc
from contactstat.submanifold import (Embedding, check_gauss_weingarten,
                                     check_structure_identities, frame_point,
                                     gauss_weingarten, induced_metric, split,
                                     tfbc)

# The classical control: the unit circle in the flat plane.
circle = Embedding(["cos(x1)", "sin(x1)"], 1)
flat = StatTriple(MetricField.euclidean(2), ConnField.flat(2))
ctx = gauss_weingarten(circle, flat, np.array([0.7]))
_, h = ctx.gauss(np.array([1.0]), VectorField.coordinate(1, 0))
print("circle: h(dt, dt) =", np.round(h[0], 6),
      " |h| =", round(float(ctx.gnorm(h)[0]), 12))

gind = induced_metric(circle, MetricField.euclidean(2))
print("circle induced metric entry:", gind.entry(0, 0))

# The 5-chart inside the flat 7-chart used by the paper-r7 fixtures.  Its
# frame directions have euclidean lengths (1, 1, sqrt 2, sqrt 2, 1).
spec = from_doc(fixture_doc("paper-r7-euclidean"))
emb = spec.embedding
gind = induced_metric(emb, spec.g)
print()
print("induced metric of the 5-chart:")
print(gind.at(np.zeros((1, 5)))[0])

# Splitting an ambient vector into tangent and normal coefficients.
fp = frame_point(emb, spec.g, np.zeros(5))
phi0 = spec.acs.phi_at(np.zeros((1, 7)))[0]
v = phi0 @ fp.J.val[0, :, 2]  # phi of the third frame direction: wholly normal
a, b = split(fp, v[None])
print()
print("phi(e3) tangent coefficients:", np.round(a[0], 12))
print("phi(e3) normal coefficients: ", np.round(b[0], 6))

# The tangential/normal split of phi at a frame point.
parts = tfbc(spec.acs, fp)
print()
print("T (tangent -> tangent):")
print(np.round(parts.T[0], 6))
print("F (tangent -> normal):")
print(np.round(parts.F[0], 6))

# Everything above is wired into residual reports.
print()
rep = check_gauss_weingarten(emb, spec.sss.st, sample_box(5, count=16))
print(rep.table())
print()
rep = check_structure_identities(emb, spec.sss.st, spec.acs,
                                 sample_box(5, count=16))
print(rep.table())
