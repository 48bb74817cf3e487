"""capstate: effort/stress capacity-state estimation from cardiac and
electrodermal recordings.

Pipeline: signal conditioning -> R-peak/IBI + tonic/phasic EDA feature
extraction -> dual-stream multi-task network with masked effort supervision ->
leave-one-subject-out evaluation -> (U, O) state-space trajectory analysis.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
