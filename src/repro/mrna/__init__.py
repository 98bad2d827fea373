"""mRNA stand-in: analytical mapping generation for MAERI.

Candidates are priced with the MAERI controller's own steady term
(:meth:`repro.stonne.maeri.MaeriController.steady_cycles`): steady-state
cycles, without the pipeline fill, which on the accumulation-buffer
config leaves the pick within 3.1% of the best candidate's total cycles.
"""

from repro.mrna.mapper import MappingChoice, MrnaMapper

__all__ = ["MappingChoice", "MrnaMapper"]
