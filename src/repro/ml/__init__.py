"""Neural-network substrate in pure numpy.

Replaces Keras/TensorFlow for the three learned IDSs: dense layers with
backprop, SGD/Adam optimizers, a denoising-free autoencoder with online
single-instance training (KitNET-style), a small LSTM with truncated
BPTT (HELAD's temporal model), and a feed-forward binary classifier
(the DNN study's 3-hidden-layer network). :mod:`repro.ml.batched`
packs an ensemble of autoencoders for batched execute-phase scoring,
bit-identical to the per-row loops; :mod:`repro.ml.batched_train` is
its training counterpart — stacked online training with the exact
per-row trajectory.
"""

from repro.ml.activations import identity, relu, sigmoid, tanh
from repro.ml.dense import DenseLayer
from repro.ml.optimizers import SGD, Adam
from repro.ml.losses import binary_cross_entropy, mean_squared_error
from repro.ml.autoencoder import Autoencoder
from repro.ml.batched import BatchedEnsemble
from repro.ml.batched_train import OnlineEnsembleTrainer
from repro.ml.lstm import LSTMRegressor
from repro.ml.mlp import MLPClassifier

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "identity",
    "DenseLayer",
    "SGD",
    "Adam",
    "binary_cross_entropy",
    "mean_squared_error",
    "Autoencoder",
    "BatchedEnsemble",
    "OnlineEnsembleTrainer",
    "LSTMRegressor",
    "MLPClassifier",
]
