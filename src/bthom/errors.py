"""The one root of the pipeline's exceptions."""


class BthomError(Exception):
    """A pipeline failure.  ``stage`` (parse, oracle, locate, eig, cm, predictor, bvp
    or newton) names the stage that failed: the class default or a keyword."""

    stage = "unknown"

    def __init__(self, *args, stage: str = ""):
        super().__init__(*args)
        self.stage = stage or self.stage
