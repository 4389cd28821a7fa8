"""fpkit: exact arithmetic for signed fixed-point data of circle actions.

The package models a finite fixed-point set where each point carries a sign
and a multiset of nonzero integer weights.  On top of that data it provides:

* integer polynomial / rational-function / truncated-series arithmetic
  (:mod:`fpkit.algebra`),
* the JSON data model and per-point statistics (:mod:`fpkit.data`),
* the Hirzebruch-type genus computed two independent ways
  (:mod:`fpkit.genus`),
* necessary-condition checkers for realizability (:mod:`fpkit.identities`),
* signed labeled multigraphs encoding the weight data
  (:mod:`fpkit.multigraph`),
* a bounded survey and classifier of small data sets (:mod:`fpkit.classify`),
* a command-line interface (:mod:`fpkit.cli`).
"""

__version__ = "0.1.0"
