"""RRAM hardware substrate: devices, cells, sensing, arrays, accelerator.

Implements the paper's hardware contribution end to end:

* device statistics with endurance-dependent variability
  (:mod:`~repro.rram.device`);
* precharge sense-amplifier offsets and energy
  (:mod:`~repro.rram.sense`);
* the kilobit memory macro of 1T1R or differential 2T2R synapses, with
  decoders (:mod:`~repro.rram.array`);
* the Fig. 5 in-memory BNN layer architecture, executed by the runtime's
  ``rram``/``sharded`` backends (:mod:`~repro.rram.accelerator`);
* endurance/BER measurement and fault injection (:mod:`~repro.rram.errors`);
* the trial-batched Monte-Carlo engine with deterministic per-trial RNG
  streams (:mod:`~repro.rram.mc`);
* the Hamming-ECC digital alternative, including an executable
  ECC-protected weight store (:mod:`~repro.rram.ecc`);
* lifetime fault injection: stuck-at maps and dead-macro degradation
  (:mod:`~repro.rram.faults`), retention aging and yield
  (:mod:`~repro.rram.reliability`);
* energy/area accounting (:mod:`~repro.rram.energy`).
"""

from repro.rram.device import (DeviceParameters, analytic_ber_1t1r,
                               analytic_ber_2t2r)
from repro.rram.sense import SenseParameters
from repro.rram.array import RRAMArray
from repro.rram.accelerator import (AcceleratorConfig, MemoryController,
                                    ShardedController,
                                    InMemoryDenseLayer, InMemoryOutputLayer,
                                    classifier_input_bits)
from repro.rram.errors import (EnduranceExperiment, EnduranceResult,
                               inject_bit_errors, corrupt_folded)
from repro.rram.ecc import (EccMemoryController, HammingCode,
                            simulate_protected_storage)
from repro.rram.faults import FaultMap
from repro.rram.energy import EnergyModel, InferenceCost
from repro.rram.conv import (FoldedBinaryConv1d, fold_conv1d_batchnorm_sign,
                             InMemoryConv1dLayer, max_pool_bits_1d)
from repro.rram.programming import (ProgramVerifyConfig, VerifyStatistics,
                                    program_row_verified,
                                    program_array_verified)
from repro.rram.reliability import (LifetimeConfig, RetentionModel,
                                    arrhenius_acceleration, equivalent_hours,
                                    YieldAnalysis, YieldResult)
from repro.rram.analog import (AnalogConfig, AnalogCrossbar, AnalogLinear,
                               PeripheryModel)
from repro.rram.floorplan import (MacroGeometry, MacroShard, LayerPlacement,
                                  ChipFloorplan, ChipPlacer, ChipPlacement,
                                  ShardAssignment, plan_classifier,
                                  plan_model)
from repro.rram.conv2d import (FoldedBinaryConv2d, fold_conv2d_batchnorm_sign,
                               fold_depthwise2d_batchnorm_sign,
                               InMemoryConv2dLayer)
from repro.rram.mc import (read_bit_errors, shard_streams, site_stream,
                           trial_chunks, trial_streams)

__all__ = [
    "DeviceParameters",
    "analytic_ber_1t1r", "analytic_ber_2t2r",
    "SenseParameters",
    "RRAMArray",
    "AcceleratorConfig", "MemoryController", "ShardedController",
    "InMemoryDenseLayer", "InMemoryOutputLayer", "classifier_input_bits",
    "EnduranceExperiment", "EnduranceResult", "inject_bit_errors",
    "corrupt_folded",
    "HammingCode", "EccMemoryController", "simulate_protected_storage",
    "FaultMap",
    "EnergyModel", "InferenceCost",
    "FoldedBinaryConv1d", "fold_conv1d_batchnorm_sign",
    "InMemoryConv1dLayer", "max_pool_bits_1d",
    "ProgramVerifyConfig", "VerifyStatistics", "program_row_verified",
    "program_array_verified",
    "LifetimeConfig", "RetentionModel",
    "arrhenius_acceleration", "equivalent_hours",
    "YieldAnalysis", "YieldResult",
    "AnalogConfig", "AnalogCrossbar", "AnalogLinear", "PeripheryModel",
    "MacroGeometry", "MacroShard", "LayerPlacement", "ChipFloorplan",
    "ChipPlacer", "ChipPlacement", "ShardAssignment",
    "plan_classifier", "plan_model",
    "FoldedBinaryConv2d", "fold_conv2d_batchnorm_sign",
    "fold_depthwise2d_batchnorm_sign", "InMemoryConv2dLayer",
    "read_bit_errors", "shard_streams", "site_stream", "trial_chunks",
    "trial_streams",
]
