# Metrics, connections, and statistical structures
#
# A metric is a symmetric grid of expressions; its Levi-Civita connection
# comes from the Koszul formula, evaluated at a batch of points (zero for
# constant metrics).  A statistical structure pairs the metric with a
# symmetric difference tensor K whose lowered form is totally symmetric:
# the connection is nabla = levi_civita + K and its dual is
# nabla* = levi_civita - K.

import numpy as np

from contactstat.exprlang import Const
from contactstat.geometry import (ConnField, MetricField, StatTriple,
                                  check_statistical, levi_civita,
                                  metric_samples)
from contactstat.sampling import sample_box

# A warped-product style chart: g = diag(1, x1^2) on (0, inf) x R.
g = MetricField(2, {(0, 0): "1", (1, 1): "x1^2"})
pts = sample_box(2, count=4, box=(0.5, 2.0)).points
gam = levi_civita(g, pts)
print("chart points:", np.round(pts[:, 0], 3))
print("Gamma^2_12 =", np.round(gam[:, 1, 0, 1], 4), " (expect 1/x1)")
print("Gamma^1_22 =", np.round(gam[:, 0, 1, 1], 4), " (expect -x1)")

# A flat 3-chart carrying a nontrivial difference tensor: K = eta (x) eta
# (x) xi with eta = dz, xi = d/dz.  The shifted connection is statistical.
zero, one = Const(0.0), Const(1.0)
eta = [zero, zero, one]
xi = [zero, zero, one]
coeffs = [[[eta[i] * eta[j] * xi[k] for j in range(3)] for i in range(3)]
          for k in range(3)]
K = ConnField(3, coeffs)

g3 = MetricField.euclidean(3)
st = StatTriple(g3, K)
report = check_statistical(st, metric_samples(g3))
print()
print(report.table())

# The dual structure undoes the shift: nabla* = levi_civita - K, and
# dualising twice returns the original coefficients.
dual = st.dual()
dd = dual.dual()
_, gam, gam_star = st.gammas(np.zeros((1, 3)))
print()
print("Gamma^3_33 and Gamma*^3_33:", gam[0, 2, 2, 2], gam_star[0, 2, 2, 2])
print("dual difference tensor K*^3_33:", dual.K.coeffs[2][2][2])
print("double dual equals the original:", dd.K.coeffs == K.coeffs)
