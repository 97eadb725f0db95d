"""Exact infinitesimal arithmetic, hull distances, and the punctured-plane
universal cover.

The package has three layers:

* `intervals` / `lcf` / `parsing` - a computable ordered field of truncated
  power series in one positive infinitesimal, with exact rational-interval
  coefficients, rigorous sqrt/cos/sin/pi enclosures, magnitude
  classification, standard parts, and a round-tripping literal grammar;
* `hull` / `spaces` - halos, galaxies, and standard-part distances over
  registered metric spaces, with harnesses for the completeness and
  Heine-Borel characterizations;
* `cover` / `gridoracle` - the metric universal cover of the punctured
  plane: exact geodesic distance, inapproachability certificates, the
  2-separated net witnessing Heine-Borel failure, and an independent
  shortest-path oracle on a discretized annulus.

The submodules are the API (``from ihull import lcf``); nothing is re-exported.
"""
