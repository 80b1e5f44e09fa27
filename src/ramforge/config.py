"""Package-wide size limits and defaults."""

# largest field order p**m that field_create accepts
MAX_FIELD_SIZE = 2**64
# exp/log tables are only built up to this order; larger extension fields
# fall back to digit arithmetic
TABLE_LIMIT = 2**16
# guardrail on the q**r - 1 degree of the one-three-point constructions;
# the MAX_DEGREE_ENV environment variable overrides it
MAX_COVER_DEGREE = 2**16
MAX_DEGREE_ENV = "RAMFORGE_MAX_DEGREE"
# extra terms appended to the default Laurent precision
LAURENT_MARGIN = 8
