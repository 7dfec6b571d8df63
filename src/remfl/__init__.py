"""Communication-efficient personalized federated learning for radio maps."""

__version__ = "0.1.0"
