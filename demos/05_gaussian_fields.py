# Push i.i.d. real normals through the weighted lattice transform and
# the result is a Gaussian field with the Green kernel as covariance.
# The map is invertible, so field and driver carry the same information.

import numpy as np

from qfield import fields, green, krawtchouk as kw, walks

law = walks.lazy_walk(2, 3, gammas=[0.3, 0.7])
spec = law.spectrum()
alpha = 0.5

sample = fields.sample_field(spec, alpha, seed=1, n_samples=50_000)
cov = fields.empirical_covariance(sample.values)
target = green.green_exact(spec, alpha).matrix
print("empirical covariance vs (1-alpha)G, max abs error:",
      np.max(np.abs(cov - target)).round(4))

driver = fields.invert_field(sample.values, spec, alpha)
print("driver recovery residual:",
      np.max(np.abs(driver - sample.driver)))

print("\nuniform law: white noise plus one common mode")
uspec = walks.UniformLaw(2, 3).spectrum()
us = fields.sample_field(uspec, 0.6, seed=2, n_samples=50_000)
ucov = fields.empirical_covariance(us.values)
print("diagonal ~ 1:", np.diag(ucov).real.round(3))
print("off-diagonal ~ alpha/q^d =", 0.6 / 8, ":",
      ucov[0, 1].real.round(3))

print("\nspin-glass grouping: frequency classes by ranked values")
drv = sample.driver[0]
x = np.array([1, 0, 1])
for ranked in sorted(fields.ranked_classes(2, 3)):
    s = fields.ranked_class_sum(drv, x, ranked, 2, 3)
    print(f"  class {ranked}: contribution {s.real:+.4f}")
total = sum(fields.ranked_class_sum(drv, x, key, 2, 3)
            for key in fields.ranked_classes(2, 3))
dual = fields.dual_field(drv, 2, 3)[1 + 0 + 4]  # rank of (1,0,1)
print("class sums rebuild the dual field:", abs(total - dual) < 1e-9)

print("\ncount-indexed field from the grouped eigenvalues")
degrees = kw.degree_indices(2, 3)
kappas = dict(zip(degrees, kw.kappa_from_law(law, degrees)))
cf = fields.sample_count_field(kappas, 2, 3, alpha, seed=3, n_samples=20_000)
print("count states:", cf.counts)
print("variance per count state:",
      np.var(cf.values, axis=0).real.round(4))

print("\ntruncated torus field on a grid")
wrapped = green.WrappedLaw(1, atoms=[[0.25], [0.75]], weights=[0.35, 0.35],
                           uniform_weight=0.3)
grid = np.array([[0.15], [0.6]])
tf = fields.sample_torus_field(wrapped, 0.5, radius=4, seed=4, grid=grid,
                               n_samples=30_000)
tcov = fields.empirical_covariance(tf.values)
ttarget = green.torus_green_truncated(wrapped, 0.5, grid[0], grid[1],
                                      4).raw_partial_sum
print("grid covariance vs same-box Green sum:",
      abs(tcov[0, 1] - ttarget).round(4))
