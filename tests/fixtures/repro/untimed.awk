# Drops every column headed `[ms]` from `repro` tables, keeping the
# deterministic ones, so the output can be `cmp`ed against a golden:
#
#   repro vi6 vi8 vi11 ablate compare | awk -f untimed.awk | cmp - selection.txt
#
# Columns are separated by two or more spaces (a label may hold single
# spaces); the kept ones are printed two spaces apart.
BEGIN { FS = "  +" }
/^(==|--)/ { drop = "" }
{
    sub(/^ +/, "")
    if ($0 ~ /\[ms\]/) {
        drop = " "
        for (i = 1; i <= NF; i++) if ($i ~ /\[ms\]/) drop = drop i " "
    }
    out = ""
    sep = ""
    for (i = 1; i <= NF; i++) {
        if (index(drop, " " i " ") == 0) {
            out = out sep $i
            sep = "  "
        }
    }
    print out
}
