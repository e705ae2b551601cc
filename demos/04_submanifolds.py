# Embedded submanifolds: induced metric and Gauss-Weingarten data
#
# An embedding carries its Jacobian symbolically; at each sample the engine
# builds the tangent frame (Jacobian columns), a deterministic orthonormal
# normal frame, and evaluators for the fundamental forms h, h*, the shape
# operators A, A*, and the normal connections, for both connections of a
# statistical ambient structure.  A MapGeometry holds that data for one
# embedding: `context(p)` builds it at one domain point, and every
# submanifold check takes the MapGeometry and a sample set.

import numpy as np

from contactstat.fixtures import fixture_doc
from contactstat.geometry import (ConnField, MetricField, StatTriple,
                                  VectorField)
from contactstat.sampling import sample_box
from contactstat.specfile import from_doc
from contactstat.submanifold import (Embedding, MapGeometry, along,
                                     check_gauss_weingarten,
                                     check_structure_identities,
                                     induced_metric, split, tfbc)

# The classical control: the unit circle in the flat plane.
circle = Embedding(["cos(x1)", "sin(x1)"], 1)
flat = StatTriple(MetricField.euclidean(2), ConnField.flat(2))
ctx = MapGeometry(circle, flat).context(np.array([0.7]))
# nabla-bar of the frame field d/dt along d/dt (one field, one direction);
# its normal part is h(dt, dt)
v = along(ctx.nabla([ctx.push_jet(VectorField.coordinate(1, 0))]),
          ctx.coords)[:, 0, 0]
h = v - ctx.tangential(v)
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
mg = MapGeometry(emb, spec.sss.st, acs=spec.acs)
fp = mg.context(np.zeros(5))
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
samples = sample_box(5, count=16)
print()
print(check_gauss_weingarten(mg, samples).table())
print()
print(check_structure_identities(mg, samples).table())
