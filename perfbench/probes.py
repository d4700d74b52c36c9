"""Where the benchmark's spans go: one wrapper per public layer call.

Span names are the layer names the per-layer metrics use:

=====================  ==============================================
``runtime.scores``     ``CompiledModel.scores`` (one plan call)
``runtime.scores_trials``  ``CompiledModel.scores_trials``
``runtime.front_end``  ``FrontEndOp.run`` (the float ``serialize`` fronts)
``runtime.bit_layer``  ``BitLayerOp.run`` (packed / in-memory layers)
``runtime.periphery``  ``BitTransformOp.run`` (pooling, flatten, lookup)
``runtime.output``     ``OutputLayerOp.run``
``rram.layer_trials``  ``InMemory*Layer.forward_*_trials``
``rram.controller``    ``MemoryController`` / ``ShardedController``
                       ``.popcounts_trials``
``rram.sense_offset``  ``SenseParameters.offset`` (read-noise draws)
``io.load``            ``load_plan`` / ``load_compiled`` / ``load_bundle``
=====================  ==============================================
"""

from __future__ import annotations

__all__ = ["install"]


def install(tracer, plan_names: dict[int, str] | None = None) -> None:
    """Wrap every layer boundary listed in the module docstring.

    ``plan_names`` maps ``id(plan)`` to a name; the caller may fill it
    after installing (plans are loaded under the wrappers).  Spans of
    ``runtime.scores`` are labelled ``<name>.b<batch>``, spans of
    ``runtime.scores_trials`` ``<name>``.
    """
    names = {} if plan_names is None else plan_names

    def plan_label(plan, inputs, *args, **kwargs) -> str:
        return f"{names.get(id(plan), 'plan')}.b{len(inputs)}"

    def trials_label(plan, *args, **kwargs) -> str:
        return names.get(id(plan), "plan")

    import repro.io
    import repro.io.plans
    from repro.rram import accelerator, conv, conv2d, sense
    from repro.runtime import CompiledModel, ir

    tracer.wrap(CompiledModel, "scores", "runtime.scores", label=plan_label)
    tracer.wrap(CompiledModel, "scores_trials", "runtime.scores_trials",
                label=trials_label)
    for op_class, name in ((ir.FrontEndOp, "runtime.front_end"),
                           (ir.BitLayerOp, "runtime.bit_layer"),
                           (ir.BitTransformOp, "runtime.periphery"),
                           (ir.OutputLayerOp, "runtime.output")):
        tracer.wrap(op_class, "run", name)

    for layer, method in ((accelerator.InMemoryDenseLayer,
                           "forward_bits_trials"),
                          (accelerator.InMemoryOutputLayer,
                           "forward_scores_trials"),
                          (conv.InMemoryConv1dLayer, "forward_bits_trials"),
                          (conv2d.InMemoryConv2dLayer,
                           "forward_bits_trials")):
        tracer.wrap(layer, method, "rram.layer_trials")
    for controller in (accelerator.MemoryController,
                       accelerator.ShardedController):
        tracer.wrap(controller, "popcounts_trials", "rram.controller")
    tracer.wrap(sense.SenseParameters, "offset", "rram.sense_offset")

    # Callers import these by name at call time, so both the package
    # attribute and the defining module's attribute are wrapped.
    for module in (repro.io, repro.io.plans):
        for function in ("load_plan", "load_compiled", "load_bundle"):
            tracer.wrap(module, function, "io.load")
