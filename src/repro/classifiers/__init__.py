"""From-scratch classifier substrate (sklearn/xgboost/lightgbm substitutes).

``make_classifier(name, seed)`` is the factory the experiment harness
uses; names match the paper's classifier columns.
"""
from .forest import RandomForestClassifier
from .gbdt import LightGBMLikeClassifier, XGBoostLikeClassifier
from .knn import KNNClassifier
from .metrics import accuracy, g_mean
from .tree import DecisionTreeClassifier

__all__ = [
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "KNNClassifier",
    "XGBoostLikeClassifier",
    "LightGBMLikeClassifier",
    "accuracy",
    "g_mean",
    "make_classifier",
    "CLASSIFIER_NAMES",
]

CLASSIFIER_NAMES = ["DT", "XGBoost", "LightGBM", "kNN", "RF"]


def make_classifier(name: str, seed: int = 0):
    """Instantiate a paper classifier by its Table-IV row name."""
    if name == "DT":
        return DecisionTreeClassifier(seed=seed)
    if name == "RF":
        return RandomForestClassifier(seed=seed)
    if name == "kNN":
        return KNNClassifier(k=5)
    if name == "XGBoost":
        return XGBoostLikeClassifier()
    if name == "LightGBM":
        return LightGBMLikeClassifier()
    raise ValueError(f"unknown classifier {name!r}")
