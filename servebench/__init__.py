"""Wall-clock serving benchmark over ``QueryService`` (see README.md)."""
