"""A fully binarized vision network running its convolutions on the fabric.

§II-B of the paper: the Fig. 5 architecture "can be adapted for
convolutional layers, with a key decision between minimizing data movement
and data reuse".  This example executes that adaptation in 2-D, the setting
the paper's MobileNet discussion implies:

1. train a small all-binarized CNN (standard conv -> MobileNet-style
   depthwise + pointwise block -> binary classifier) on the synthetic
   image task;
2. fold every inner binary convolution and the classifier into integer
   popcount-threshold form;
3. execute the whole stack on simulated 2T2R hardware — weight-stationary
   conv mapping (InMemoryConv2dLayer) feeding the dense accelerator;
4. compare software and on-chip accuracy and report the device budget.

The first convolution sees analog pixels, so it stays in the digital
front-end — standard BNN practice, and the reason the paper's partial
binarization keeps first/conv layers real.

Run:  python examples/vision_block_on_chip.py
"""

import numpy as np

from repro import nn
from repro.data import ImageConfig, make_image_dataset
from repro.experiments import TrainConfig, evaluate_accuracy, train_model
from repro.nn.binary import to_bits
from repro.rram import (AcceleratorConfig, fold_conv2d_batchnorm_sign,
                        fold_depthwise2d_batchnorm_sign)
from repro.runtime import RRAMBackend, fold_classifier_stack, plan_from_folded
from repro.tensor import Tensor, no_grad


class BinaryVisionNet(nn.Module):
    """Digital front conv + binarized depthwise-separable block + binary
    classifier.  No padding anywhere, so every inner layer deploys."""

    def __init__(self, n_classes: int, image_size: int,
                 rng: np.random.Generator):
        super().__init__()
        channels = 16
        self.front = nn.Conv2d(3, channels, kernel_size=3, stride=2,
                               bias=False, rng=rng)
        self.bn_front = nn.BatchNorm2d(channels)
        self.act_front = nn.Sign()
        # The MobileNet block, binarized: depthwise 3x3 then pointwise 1x1.
        self.dw = nn.BinaryDepthwiseConv2d(channels, kernel_size=3, rng=rng)
        self.bn_dw = nn.BatchNorm2d(channels)
        self.act_dw = nn.Sign()
        self.pw = nn.BinaryConv2d(channels, 2 * channels, kernel_size=1,
                                  rng=rng)
        self.bn_pw = nn.BatchNorm2d(2 * channels)
        self.act_pw = nn.Sign()

        side = (image_size - 3) // 2 + 1  # after the front conv
        side = side - 2                   # after depthwise 3x3
        self.flat_features = 2 * channels * side * side
        self.fc1 = nn.BinaryLinear(self.flat_features, 64, rng=rng)
        self.bn_fc1 = nn.BatchNorm1d(64)
        self.act_fc1 = nn.Sign()
        self.fc2 = nn.BinaryLinear(64, n_classes, rng=rng)
        self.bn_fc2 = nn.BatchNorm1d(n_classes)

    def front_bits(self, x: Tensor) -> Tensor:
        return self.act_front(self.bn_front(self.front(x)))

    def block(self, h: Tensor) -> Tensor:
        h = self.act_dw(self.bn_dw(self.dw(h)))
        return self.act_pw(self.bn_pw(self.pw(h)))

    def forward(self, x: Tensor) -> Tensor:
        h = self.block(self.front_bits(x))
        h = h.reshape(h.shape[0], self.flat_features)
        h = self.act_fc1(self.bn_fc1(self.fc1(h)))
        return self.bn_fc2(self.fc2(h))


def main() -> None:
    rng = np.random.default_rng(0)

    print("1) Generating the synthetic image task ...")
    dataset = make_image_dataset(ImageConfig(n_classes=6, n_per_class=40,
                                             image_size=16, seed=1))
    n = len(dataset.inputs)
    order = rng.permutation(n)
    split = int(0.8 * n)
    train_x = dataset.inputs[order[:split]]
    train_y = dataset.labels[order[:split]]
    test_x = dataset.inputs[order[split:]]
    test_y = dataset.labels[order[split:]]

    print("2) Training the all-binarized vision network ...")
    model = BinaryVisionNet(n_classes=6, image_size=16,
                            rng=np.random.default_rng(2))
    train_model(model, train_x, train_y,
                TrainConfig(epochs=60, batch_size=16, lr=5e-3, seed=3,
                            augment_sigma=0.05))
    model.eval()
    sw_acc = evaluate_accuracy(model, test_x, test_y)
    print(f"   software accuracy: {sw_acc:.1%}")

    print("3) Folding the binary block and classifier ...")
    folded_dw = fold_depthwise2d_batchnorm_sign(model.dw, model.bn_dw)
    folded_pw = fold_conv2d_batchnorm_sign(model.pw, model.bn_pw)
    hidden, output = fold_classifier_stack(model)

    print("4) Programming 2T2R arrays and running the stack on-chip ...")
    backend = RRAMBackend(AcceleratorConfig(), np.random.default_rng(4))
    chip_dw = backend.prepare_conv2d(folded_dw)
    chip_pw = backend.prepare_conv2d(folded_pw)
    chip_classifier = plan_from_folded(hidden, output, backend=backend)

    with no_grad():
        front = model.front_bits(Tensor(test_x)).data
    bits = to_bits(front)
    bits = chip_pw.forward_bits(chip_dw.forward_bits(bits))
    bits = bits.reshape(len(test_x), -1)
    hw_pred = chip_classifier.predict(bits)
    hw_acc = float((hw_pred == test_y).mean())

    conv_devices = 2 * (folded_dw.weight_bits.size
                        + folded_pw.weight_bits.size)
    dense_devices = sum(op.executor.controller.n_devices
                        for op in chip_classifier.layer_ops)
    print(f"   on-chip accuracy (fresh devices): {hw_acc:.1%}")
    print(f"   devices: {conv_devices:,} in conv arrays + "
          f"{dense_devices:,} in dense arrays = "
          f"{conv_devices + dense_devices:,}")

    agreement = float((hw_pred == evaluate_predictions(model, test_x))
                      .mean())
    print(f"   chip/software prediction agreement: {agreement:.1%}")
    print("\nThe weight-stationary conv mapping keeps every inner layer in "
          "memory; only the\nanalog-input front conv and the cheap bit "
          "reshapes run in the digital periphery.")


def evaluate_predictions(model, inputs) -> np.ndarray:
    with no_grad():
        return model(Tensor(inputs)).data.argmax(axis=1)


if __name__ == "__main__":
    main()
